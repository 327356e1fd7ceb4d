package experiments

import (
	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

// Table1Row is one row of Table I.
type Table1Row struct {
	Notation       string
	CommPlacement  string
	BoundPlacement string
	LocalThreads   int
	RemoteThreads  int
}

// TableI returns the six attack configurations.
func TableI() []Table1Row {
	out := make([]Table1Row, 0, len(covert.Scenarios))
	for _, sc := range covert.Scenarios {
		l, r := sc.TrojanThreads()
		out = append(out, Table1Row{
			Notation:       sc.Name(),
			CommPlacement:  sc.Comm.String(),
			BoundPlacement: sc.Bound.String(),
			LocalThreads:   l,
			RemoteThreads:  r,
		})
	}
	return out
}

// Fig7Reception runs the Figure 6/7 demonstration for one scenario at
// the reliable operating point: one subfigure of Figure 7, the spy's
// reception trace for the 100-bit Figure 6 pattern plus decode quality.
func Fig7Reception(cfg machine.Config, sc covert.Scenario, seed uint64) (*covert.Result, error) {
	ch := &covert.Channel{
		Config:      cfg,
		Scenario:    sc,
		Params:      covert.DefaultParams(),
		Mode:        covert.ShareKSM,
		WorldSeed:   seed,
		PatternSeed: seed ^ 0x7777,
	}
	return ch.Run(Fig6Pattern())
}
