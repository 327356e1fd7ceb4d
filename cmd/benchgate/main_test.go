package main

import (
	"strings"
	"testing"
)

func TestParseAveragesStreamPairs(t *testing.T) {
	in := `goos: linux
BenchmarkStream/noise4/ref-2    	     300	    400000 ns/op
BenchmarkStream/noise4/exec-2   	     300	    280000 ns/op
BenchmarkStream/noise4/ref-2    	     300	    420000 ns/op
BenchmarkStream/noise4/exec-2   	     300	    300000 ns/op
BenchmarkStream/noise1/ref      	     300	     34000 ns/op
BenchmarkStream/noise1/other-2  	     300	     99999 ns/op
BenchmarkArtifact/fig2-2        	       1	  15000000 ns/op
BenchmarkStream/noise1/exec-2   	     300	     29000 ns/op	  12 B/op
PASS
`
	ref, exec, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]float64{"noise4": {410000, 290000}, "noise1": {34000, 29000}}
	if len(ref) != len(want) || len(exec) != len(want) {
		t.Fatalf("ref %v exec %v, want shapes %v", ref, exec, want)
	}
	for shape, w := range want {
		if ref[shape] != w[0] || exec[shape] != w[1] {
			t.Errorf("%s: ref %v exec %v, want %v", shape, ref[shape], exec[shape], w)
		}
	}
}
