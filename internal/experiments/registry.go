package experiments

import (
	"fmt"
	"strings"

	"coherentleak/internal/coherence"
	"coherentleak/internal/covert"
	"coherentleak/internal/harness"
)

// Artifacts builds the registry of every paper artifact. Each artifact
// declares its TSV shape and decomposes into independent cells (one
// placement, scenario or sweep column per cell), so the harness Runner
// can execute a whole regeneration on a worker pool while keeping the
// assembled tables byte-identical to a serial run. Cell seed
// derivations mirror the historical serial loops, so the numbers match
// the pre-engine outputs as well.
func Artifacts() *harness.Registry {
	reg := harness.NewRegistry()
	for _, a := range []*harness.Artifact{
		table1Artifact(),
		fig2Artifact(),
		fig6Artifact(),
		fig7Artifact(),
		fig8Artifact(),
		fig9Artifact(),
		fig10Artifact(),
		fig11Artifact(),
		peaksArtifact(),
		mitigationsArtifact(),
		capacityArtifact(),
		protomatrixArtifact(),
		lrustateArtifact(),
		dirtystateArtifact(),
	} {
		reg.MustRegister(a)
	}
	return reg
}

// oneCell wraps a single-unit artifact body.
func oneCell(name string, run func() (harness.CellOutput, error)) func(harness.Plan) ([]harness.Cell, error) {
	return func(harness.Plan) ([]harness.Cell, error) {
		return []harness.Cell{{Name: name, Run: run}}, nil
	}
}

// scenarioCells builds one cell per Table I scenario.
func scenarioCells(run func(sc covert.Scenario, i int) (harness.CellOutput, error)) []harness.Cell {
	cells := make([]harness.Cell, 0, len(covert.Scenarios))
	for i, sc := range covert.Scenarios {
		cells = append(cells, harness.Cell{
			Name: sc.Name(),
			Run:  func() (harness.CellOutput, error) { return run(sc, i) },
		})
	}
	return cells
}

func table1Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "table1",
		Description: "Table I: the six attack configurations",
		File:        "table1.tsv",
		Header:      "notation\tcomm\tboundary\tlocal_threads\tremote_threads",
		Cells: oneCell("rows", func() (harness.CellOutput, error) {
			var out harness.CellOutput
			for _, row := range TableI() {
				out.Rows = append(out.Rows, fmt.Sprintf("%s\t%s\t%s\t%d\t%d",
					row.Notation, row.CommPlacement, row.BoundPlacement,
					row.LocalThreads, row.RemoteThreads))
			}
			return out, nil
		}),
	}
}

func fig2Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig2",
		Description: "Figure 2: load-latency CDF per (location, coherence-state) placement",
		File:        "fig2_cdf.tsv",
		Header:      "placement\tlatency_cycles\tcdf",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			cells := make([]harness.Cell, 0, len(covert.AllPlacements))
			for i, pl := range covert.AllPlacements {
				cells = append(cells, harness.Cell{
					Name: pl.String(),
					Run: func() (harness.CellOutput, error) {
						s, err := Fig2Placement(p.Cfg, pl, p.Size(1000, 200), p.Seed+uint64(i)*13)
						if err != nil {
							return harness.CellOutput{}, err
						}
						var out harness.CellOutput
						for _, pt := range s.CDF {
							out.Rows = append(out.Rows, fmt.Sprintf("%s\t%.0f\t%.4f", s.Placement, pt.X, pt.P))
						}
						out.Summary = append(out.Summary, fmt.Sprintf(
							"fig2 %-8s mean=%.1f cycles (min %.0f, max %.0f)",
							s.Placement, s.Summary.Mean, s.Summary.Min, s.Summary.Max))
						return out, nil
					},
				})
			}
			return cells, nil
		},
	}
}

func fig6Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig6",
		Description: "Figure 6: the 100-bit pattern the trojan transmits",
		File:        "fig6_pattern.tsv",
		Header:      "index\tbit",
		Cells: oneCell("pattern", func() (harness.CellOutput, error) {
			var out harness.CellOutput
			for i, b := range Fig6Pattern() {
				out.Rows = append(out.Rows, fmt.Sprintf("%d\t%d", i, b))
			}
			return out, nil
		}),
	}
}

func fig7Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig7",
		Description: "Figure 7: spy reception trace of the 100-bit pattern per scenario",
		File:        "fig7_reception.tsv",
		Header:      "scenario\tsample\tlatency_cycles\tclass",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return scenarioCells(func(sc covert.Scenario, i int) (harness.CellOutput, error) {
				res, err := Fig7Reception(p.Cfg, sc, p.Seed+uint64(i)*17)
				if err != nil {
					return harness.CellOutput{}, err
				}
				var out harness.CellOutput
				for j, s := range res.Samples {
					out.Rows = append(out.Rows, fmt.Sprintf("%s\t%d\t%d\t%s", sc.Name(), j, s.Latency, s.Class))
				}
				out.Summary = append(out.Summary, fmt.Sprintf(
					"fig7 %-18s accuracy=%.1f%% rate=%.0f Kbps sync=%.2f us",
					sc.Name(), res.Accuracy*100, res.RawKbps,
					p.Cfg.CyclesToSeconds(res.SyncCycles)*1e6))
				return out, nil
			}), nil
		},
	}
}

func fig8Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig8",
		Description: "Figure 8: raw-bit accuracy vs attempted bit rate per scenario",
		File:        "fig8_rate_accuracy.tsv",
		Header:      "scenario\ttarget_kbps\tmeasured_kbps\taccuracy",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return scenarioCells(func(sc covert.Scenario, _ int) (harness.CellOutput, error) {
				pts, err := Fig8RateSweep(p.Cfg, sc, Fig8Targets(), p.Size(1000, 300), p.Seed)
				if err != nil {
					return harness.CellOutput{}, err
				}
				var out harness.CellOutput
				line := fmt.Sprintf("fig8 %-18s", sc.Name())
				for _, pt := range pts {
					out.Rows = append(out.Rows, fmt.Sprintf("%s\t%.0f\t%.1f\t%.4f",
						sc.Name(), pt.TargetKbps, pt.MeasuredKbps, pt.Accuracy))
					line += fmt.Sprintf(" %.0f:%.0f%%", pt.TargetKbps, pt.Accuracy*100)
				}
				out.Summary = append(out.Summary, line)
				return out, nil
			}), nil
		},
	}
}

func fig9Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig9",
		Description: "Figure 9: accuracy under co-located kernel-build noise per scenario",
		File:        "fig9_noise_accuracy.tsv",
		Header:      "scenario\tnoise_threads\taccuracy\tmeasured_kbps",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return scenarioCells(func(sc covert.Scenario, _ int) (harness.CellOutput, error) {
				pts, err := Fig9Noise(p.Cfg, sc, Fig9NoiseLevels(), p.Size(500, 200), p.Seed)
				if err != nil {
					return harness.CellOutput{}, err
				}
				var out harness.CellOutput
				line := fmt.Sprintf("fig9 %-18s", sc.Name())
				for _, pt := range pts {
					out.Rows = append(out.Rows, fmt.Sprintf("%s\t%d\t%.4f\t%.1f",
						pt.Scenario, pt.NoiseThreads, pt.Accuracy, pt.MeasuredKbps))
					line += fmt.Sprintf(" n%d:%.0f%%", pt.NoiseThreads, pt.Accuracy*100)
				}
				out.Summary = append(out.Summary, line)
				return out, nil
			}), nil
		},
	}
}

func fig10Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig10",
		Description: "Figure 10: effective rate with parity+NACK retransmission under noise",
		File:        "fig10_ecc.tsv",
		Header:      "scenario\tnoise_threads\traw_kbps\teffective_kbps\tretransmissions\trecovered",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return scenarioCells(func(sc covert.Scenario, _ int) (harness.CellOutput, error) {
				pts, err := Fig10ECC(p.Cfg, sc, Fig10NoiseLevels(), p.Size(3, 1), p.Seed)
				if err != nil {
					return harness.CellOutput{}, err
				}
				var out harness.CellOutput
				line := fmt.Sprintf("fig10 %-18s", sc.Name())
				for _, pt := range pts {
					out.Rows = append(out.Rows, fmt.Sprintf("%s\t%d\t%.1f\t%.1f\t%d\t%v",
						pt.Scenario, pt.NoiseThreads, pt.RawKbps, pt.EffectiveKbps,
						pt.Retransmissions, pt.Recovered))
					line += fmt.Sprintf(" n%d:%.0fKbps(rtx %d)", pt.NoiseThreads, pt.EffectiveKbps, pt.Retransmissions)
				}
				out.Summary = append(out.Summary, line)
				return out, nil
			}), nil
		},
	}
}

func fig11Artifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "fig11",
		Description: "Figure 11: 2-bit-symbol channel reception trace",
		File:        "fig11_multibit.tsv",
		Header:      "sample\tlatency_cycles\tsymbol",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return []harness.Cell{{
				Name: "multibit",
				Run: func() (harness.CellOutput, error) {
					res, err := Fig11MultiBit(p.Cfg, p.Size(200, 60), p.Seed)
					if err != nil {
						return harness.CellOutput{}, err
					}
					var out harness.CellOutput
					for i, s := range res.Samples {
						out.Rows = append(out.Rows, fmt.Sprintf("%d\t%d\t%d", i, s.Latency, res.SymbolTrace[i]))
					}
					out.Summary = append(out.Summary, fmt.Sprintf(
						"fig11 multibit accuracy=%.1f%% rate=%.0f Kbps", res.Accuracy*100, res.RawKbps))
					return out, nil
				},
			}}, nil
		},
	}
}

// peaksMinAccuracy is the abstract's accuracy floor for the headline
// peak rates.
const peaksMinAccuracy = 0.97

func peaksArtifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "peaks",
		Description: "Abstract headline: peak binary and 2-bit-symbol rates at >=97% accuracy",
		File:        "peaks.tsv",
		Header:      "channel\tkbps\tscenario",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return []harness.Cell{{
				Name: "sweep",
				Run: func() (harness.CellOutput, error) {
					pk, err := FindPeakRates(p.Cfg, peaksMinAccuracy, p.Size(400, 150), p.Seed)
					if err != nil {
						return harness.CellOutput{}, err
					}
					return harness.CellOutput{
						Rows: []string{
							fmt.Sprintf("binary\t%.1f\t%s", pk.BinaryKbps, pk.BinaryName),
							fmt.Sprintf("multibit\t%.1f\t-", pk.MultiBitKbps),
						},
						Summary: []string{fmt.Sprintf(
							"peaks: binary %.0f Kbps (%s), multibit %.0f Kbps at >=%.0f%% accuracy",
							pk.BinaryKbps, pk.BinaryName, pk.MultiBitKbps, peaksMinAccuracy*100)},
					}, nil
				},
			}}, nil
		},
	}
}

func mitigationsArtifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "mitigations",
		Description: "§VIII-E ablation: raw-bit accuracy per (scenario, defense)",
		File:        "mitigations.tsv",
		Header:      "scenario\tdefense\taccuracy",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			return scenarioCells(func(sc covert.Scenario, i int) (harness.CellOutput, error) {
				pts, err := MitigationScenario(p.Cfg, sc, i, p.Size(120, 60), p.Seed)
				if err != nil {
					return harness.CellOutput{}, err
				}
				var out harness.CellOutput
				for _, pt := range pts {
					out.Rows = append(out.Rows, fmt.Sprintf("%s\t%s\t%.4f", pt.Scenario, pt.Defense, pt.Accuracy))
				}
				out.Summary = append(out.Summary, fmt.Sprintf("mitigations %-18s %d cells", sc.Name(), len(pts)))
				return out, nil
			}), nil
		},
	}
}

func protomatrixArtifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "protomatrix",
		Description: "protocol x policy x channel survival matrix over every registered coherence protocol and replacement policy",
		File:        "protocol_matrix.tsv",
		Header:      "protocol\tpolicy\tchannel\traw_kbps\taccuracy\tinfo_kbps\tsurvives\tnote",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			protos := coherence.Protocols()
			cells := make([]harness.Cell, 0, len(protos))
			for i, proto := range protos {
				i, proto := i, proto
				cells = append(cells, harness.Cell{
					Name: strings.ToLower(string(proto)),
					Run: func() (harness.CellOutput, error) {
						pts, err := MatrixRow(p.Cfg, proto, i, p.Size(120, 40), p.Seed)
						if err != nil {
							return harness.CellOutput{}, err
						}
						var out harness.CellOutput
						for _, pt := range pts {
							out.Rows = append(out.Rows, fmt.Sprintf("%s\t%s\t%s\t%.1f\t%.4f\t%.1f\t%v\t%s",
								pt.Protocol, pt.Policy, pt.Channel, pt.RawKbps, pt.Accuracy, pt.InfoKbps, pt.Survives, pt.Note))
							out.Summary = append(out.Summary, fmt.Sprintf(
								"protomatrix %-7s %-9s %-10s survives=%-5v acc=%.0f%% info=%.0f Kbps",
								pt.Protocol, pt.Policy, pt.Channel, pt.Survives, pt.Accuracy*100, pt.InfoKbps))
						}
						return out, nil
					},
				})
			}
			return cells, nil
		},
	}
}

// capacityScenario is the robust pair the §II capacity table studies.
func capacityScenario() covert.Scenario { return covert.Scenarios[3] } // RExclc-LSharedb

// capacityTargets and capacityNoise are the studied grid axes.
func capacityTargets() []float64 { return []float64{300, 700, 1000} }
func capacityNoise() []int       { return []int{0, 8} }

func capacityArtifact() *harness.Artifact {
	return &harness.Artifact{
		Name:        "capacity",
		Description: "§II extension: information rate and TCSEC class over a rate x noise grid",
		File:        "capacity.tsv",
		Header:      "scenario\ttarget_kbps\tnoise\traw_kbps\tflip\tlost\textra\tinfo_kbps\ttcsec",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			sc := capacityScenario()
			targets := capacityTargets()
			cells := make([]harness.Cell, 0, len(targets))
			for i, target := range targets {
				cells = append(cells, harness.Cell{
					Name: fmt.Sprintf("rate%.0f", target),
					Run: func() (harness.CellOutput, error) {
						pts, err := CapacityColumn(p.Cfg, sc, target, i, capacityNoise(), p.Size(400, 150), p.Seed)
						if err != nil {
							return harness.CellOutput{}, err
						}
						var out harness.CellOutput
						for _, pt := range pts {
							out.Rows = append(out.Rows, fmt.Sprintf("%s\t%.0f\t%d\t%.1f\t%.4f\t%.4f\t%.4f\t%.1f\t%s",
								pt.Scenario, pt.TargetKbps, pt.NoiseThreads, pt.RawKbps,
								pt.FlipRate, pt.LostRate, pt.ExtraRate, pt.InfoKbps, pt.TCSEC))
							out.Summary = append(out.Summary, fmt.Sprintf(
								"capacity %s @%.0f n=%d: info %.0f Kbps (%s)",
								pt.Scenario, pt.TargetKbps, pt.NoiseThreads, pt.InfoKbps, pt.TCSEC))
						}
						return out, nil
					},
				})
			}
			return cells, nil
		},
	}
}
