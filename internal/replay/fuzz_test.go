package replay

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzReplayLoad feeds arbitrary bytes to Load and LoadArtifact. Neither
// may panic, and a record either accepts must round-trip: saving it and
// loading the saved bytes gives the same record, and saving that again
// gives the same bytes. Seeds are a saved transmission record, a saved
// artifact record, and the rejections the unit tests pin.
func FuzzReplayLoad(f *testing.F) {
	var rec, art bytes.Buffer
	r := &Record{Version: SchemaVersion, Scenario: "LExclc-LSharedb", TxBits: "1011", RxBits: "1001",
		Accuracy: 0.75, RawKbps: 701.5, Duration: 12000, Synced: true,
		Bands:   []BandRecord{{Name: "DRAM", Lo: 280, Hi: 320, Center: 300}},
		Samples: []SampleRecord{{Cycle: 10, Latency: 150, Class: "E"}}}
	r.Params.C1, r.Params.Ts, r.Params.Probe = 6, 3800, "load"
	if err := Save(&rec, r); err != nil {
		f.Fatal(err)
	}
	if err := SaveArtifact(&art, &ArtifactRecord{Version: ArtifactSchemaVersion, Artifact: "fig8",
		Sizing: "quick", Seed: 7, Header: "a\tb", Rows: []string{"1\t2"},
		Cells: []ArtifactCell{{Name: "c", Cached: true, Rows: 1, Error: "boom"}}}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		rec.String(), art.String(),
		`{"version": 99}`, `{"version": 1, "txBits": "10x1"}`, `not json`,
		`{"version": 1, "samples": []}`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := Load(bytes.NewReader(data)); err == nil {
			r.Reaccuracy()
			roundTrip(t, r, Save, Load)
		}
		if a, err := LoadArtifact(bytes.NewReader(data)); err == nil {
			roundTrip(t, a, SaveArtifact, LoadArtifact)
		}
	})
}

// roundTrip saves v, loads it back and saves it again: the loaded value
// must equal v up to an empty slice omitted as absent, and both saves
// must be byte-identical.
func roundTrip[T any](t *testing.T, v *T, save func(io.Writer, *T) error, load func(io.Reader) (*T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := save(&first, v); err != nil {
		t.Fatalf("save of an accepted record: %v", err)
	}
	back, err := load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("saved record rejected: %v\n%s", err, first.Bytes())
	}
	if err := save(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("save is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
	}
	if rv, ok := any(v).(*Record); ok && len(rv.Samples) == 0 {
		rv.Samples = nil // omitempty: [] saves as absent
	}
	if !reflect.DeepEqual(v, back) {
		t.Fatalf("record changed in the round trip:\n%+v\nthen\n%+v", v, back)
	}
}
