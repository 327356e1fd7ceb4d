package experiments

import (
	"coherentleak/internal/cache"
	"coherentleak/internal/covert"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"

	"fmt"
)

// This file registers the two metadata leakage channels from the
// follow-on papers as artifacts: lrustate (replacement-metadata channel,
// Xiong & Szefer) and dirtystate (writeback-latency channel, Cui et
// al.). Both run once per registered replacement policy, because the
// policy is the experiment: lrustate lives or dies by how the policy
// maps touches to victim choice, while dirtystate is policy-blind — the
// flat accuracy row is the control that shows the leak rides on the
// line's dirty bit, not on replacement state.

// slotCells builds one cell per registered replacement policy for the
// slotted metadata channel of that name, run as its matrixChannels entry
// runs it.
func slotCells(p harness.Plan, channel string) []harness.Cell {
	var run func(machine.Config, int, uint64) (*covert.Transmission, error)
	for _, ch := range matrixChannels {
		if ch.name == channel {
			run = ch.run
		}
	}
	pols := cache.Policies()
	cells := make([]harness.Cell, 0, len(pols))
	for i, info := range pols {
		i, name := i, info.Name
		cells = append(cells, harness.Cell{
			Name: name,
			Run: func() (harness.CellOutput, error) {
				cfg := p.Cfg
				cfg.Replacement = name
				res, err := run(cfg, p.Size(120, 40), p.Seed+uint64(i)*29)
				if err != nil {
					return harness.CellOutput{}, err
				}
				var out harness.CellOutput
				for j, s := range res.Samples {
					out.Rows = append(out.Rows, fmt.Sprintf("%s\t%d\t%d\t%d\t%d",
						name, j, res.TxBits[j], res.RxBits[j], s.Latency))
				}
				out.Summary = append(out.Summary, fmt.Sprintf(
					"%s %-9s accuracy=%.1f%% rate=%.0f Kbps",
					channel, name, res.Accuracy*100, res.RawKbps))
				return out, nil
			},
		})
	}
	return cells
}

func lrustateArtifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "lrustate",
		Description: "LRU-state channel: bits through LLC replacement metadata only, per replacement policy",
		File:        "lrustate.tsv",
		Header:      "policy\tslot\ttx_bit\trx_bit\tlatency_cycles",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return slotCells(p, "lrustate"), nil
		},
	}
}

func dirtystateArtifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "dirtystate",
		Description: "dirty-state channel: M-vs-clean decoded from flush/writeback latency, per replacement policy",
		File:        "dirtystate.tsv",
		Header:      "policy\tslot\ttx_bit\trx_bit\tflush_latency_cycles",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return slotCells(p, "dirtystate"), nil
		},
	}
}
