package main

import (
	"strings"
	"testing"

	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

func TestChannelFlagsBuild(t *testing.T) {
	cfg := machine.DefaultConfig()
	sc := covert.Scenarios[3]
	base := channelFlags{scenario: "LExclc-LSharedb", lanes: 1, probe: "clflush"}
	with := func(edit func(*channelFlags)) channelFlags {
		f := base
		edit(&f)
		return f
	}
	evict := covert.DefaultParams()
	evict.Probe = covert.ProbeEviction
	for _, tc := range []struct {
		name    string
		flags   channelFlags
		wantErr string
		// Exactly one of binary and multi is checked on success.
		binary *covert.Channel
		multi  *covert.MultiBitParams
	}{
		{name: "defaults", flags: base,
			binary: &covert.Channel{Scenario: covert.Scenarios[0], Params: covert.DefaultParams(), Lanes: 1}},
		{name: "rate", flags: with(func(f *channelFlags) { f.scenario, f.rate = sc.Name(), 700 }),
			binary: &covert.Channel{Scenario: sc, Params: covert.ParamsForRate(cfg, sc, 700), Lanes: 1}},
		{name: "lanes", flags: with(func(f *channelFlags) { f.lanes = 4 }),
			binary: &covert.Channel{Scenario: covert.Scenarios[0], Params: covert.DefaultParams(), Lanes: 4}},
		{name: "eviction", flags: with(func(f *channelFlags) { f.probe = "eviction" }),
			binary: &covert.Channel{Scenario: covert.Scenarios[0], Params: evict, Lanes: 1}},
		{name: "bad probe", flags: with(func(f *channelFlags) { f.probe = "prime" }), wantErr: "unknown probe"},
		{name: "bad probe multibit", flags: with(func(f *channelFlags) { f.probe, f.multibit = "prime", true }), wantErr: "unknown probe"},
		{name: "bad scenario", flags: with(func(f *channelFlags) { f.scenario = "LExclc-LExclb" }), wantErr: "LExclc-LExclb"},
		{name: "multibit", flags: with(func(f *channelFlags) { f.multibit = true }),
			multi: ptr(covert.DefaultMultiBitParams())},
		{name: "multibit rate", flags: with(func(f *channelFlags) { f.multibit, f.rate = true, 1400 }),
			multi: ptr(covert.MultiBitParamsForRate(cfg, 1400))},
		{name: "multibit lanes", flags: with(func(f *channelFlags) { f.multibit, f.lanes = true, 4 }), wantErr: "-lanes 4"},
		{name: "multibit eviction", flags: with(func(f *channelFlags) { f.multibit, f.probe = true, "eviction" }), wantErr: "-probe eviction"},
		{name: "save", flags: with(func(f *channelFlags) { f.save = true }),
			binary: &covert.Channel{Scenario: covert.Scenarios[0], Params: covert.DefaultParams(), Lanes: 1}},
		{name: "multibit save", flags: with(func(f *channelFlags) { f.multibit, f.save = true, true }), wantErr: "-save"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch, mb, err := tc.flags.build(cfg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.multi != nil {
				if ch != nil || mb == nil || mb.Params != *tc.multi {
					t.Fatalf("got binary %v, multibit %+v; want multibit params %+v", ch, mb, *tc.multi)
				}
				return
			}
			if mb != nil || ch == nil {
				t.Fatalf("got multibit %+v, want the binary channel", mb)
			}
			if ch.Scenario != tc.binary.Scenario || ch.Params != tc.binary.Params || ch.Lanes != tc.binary.Lanes {
				t.Fatalf("channel = %v %+v lanes %d, want %v %+v lanes %d",
					ch.Scenario, ch.Params, ch.Lanes, tc.binary.Scenario, tc.binary.Params, tc.binary.Lanes)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }
