package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"coherentleak/internal/replay"
)

// TSVSink writes each assembled artifact to <Dir>/<artifact.File>.
type TSVSink struct {
	Dir string
	// Log, when set, receives one "wrote <path> (<n> rows)" line per
	// artifact — deterministic, since sinks run at assembly in artifact
	// order.
	Log io.Writer
}

// WriteArtifact implements Sink.
func (s TSVSink) WriteArtifact(res *ArtifactResult) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.Dir, res.Artifact.File)
	if err := os.WriteFile(path, res.TSV(), 0o644); err != nil {
		return err
	}
	if s.Log != nil {
		fmt.Fprintf(s.Log, "wrote %s (%d rows)\n", path, res.NumRows())
	}
	return nil
}

// ReplaySink archives each assembled artifact as a versioned JSON
// record under <Dir>/<artifact>.json, so every run's outputs can be
// diffed across code revisions without re-running the simulator.
type ReplaySink struct {
	Dir string
}

// NewArtifactRecord converts an assembled artifact into its versioned
// replay DTO — the one ReplaySink archives and the service daemon serves
// as a JSON download.
func NewArtifactRecord(res *ArtifactResult) *replay.ArtifactRecord {
	rec := &replay.ArtifactRecord{
		Version:      replay.ArtifactSchemaVersion,
		Artifact:     res.Artifact.Name,
		Description:  res.Artifact.Description,
		Sizing:       string(res.Plan.Sizing),
		Seed:         res.Plan.Seed,
		ConfigDigest: res.ConfigDigest,
		Header:       res.Artifact.Header,
		Rows:         res.Rows(),
	}
	if rec.Sizing == "" {
		rec.Sizing = string(SizingFull)
	}
	for _, c := range res.Cells {
		cell := replay.ArtifactCell{
			Name:       c.Cell,
			Cached:     c.Cached,
			WallMillis: float64(c.Wall) / float64(time.Millisecond),
			Rows:       c.Rows,
		}
		if c.Err != nil {
			cell.Error = c.Err.Error()
		}
		rec.Cells = append(rec.Cells, cell)
	}
	return rec
}

// WriteArtifact implements Sink.
func (s ReplaySink) WriteArtifact(res *ArtifactResult) error {
	rec := NewArtifactRecord(res)
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(s.Dir, res.Artifact.Name+".json"))
	if err != nil {
		return err
	}
	if err := replay.SaveArtifact(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
