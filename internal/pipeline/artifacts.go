package pipeline

import (
	"bytes"
	"fmt"
	"io"

	"comparenb/internal/obs"
)

// Artifact is one rendered representation of a finished run — the unit
// the serving layer stores, journals and recovers. Key names the format
// (ipynb, markdown, html, report, trace, metrics); ArtifactContentType
// maps it to the HTTP content type the bytes are served under.
type Artifact struct {
	Key  string
	Data []byte
}

// artifactContentTypes maps every artifact key to its content type. The
// server serves every artifact under the type of its key, so a durable
// one keeps and journals only each file's fingerprint.
var artifactContentTypes = map[string]string{
	"ipynb":    "application/x-ipynb+json",
	"markdown": "text/markdown; charset=utf-8",
	"html":     "text/html; charset=utf-8",
	"report":   "application/json",
	"trace":    "application/json",
	"metrics":  "text/plain; version=0.0.4",
}

// ArtifactContentType returns the content type for an artifact key, or
// false for unknown keys (a journal from a newer version, say).
func ArtifactContentType(key string) (string, bool) {
	ct, ok := artifactContentTypes[key]
	return ct, ok
}

// ArtifactKeys lists the artifact formats a run renders, in render order.
func ArtifactKeys() []string {
	return []string{"ipynb", "markdown", "html", "report", "trace", "metrics"}
}

// RenderArtifacts materialises every served representation of a finished
// run, in ArtifactKeys order. Trace and metrics render last so the
// notebook's verification queries are already on the books in reg. The
// bytes are the same a one-shot CLI run would write — the serving and
// durability layers must store and recover them unchanged.
func RenderArtifacts(res *Result, reg *obs.Registry) ([]Artifact, error) {
	nb := BuildNotebook(res)
	renders := []struct {
		key   string
		write func(io.Writer) error
	}{
		{"ipynb", nb.WriteIPYNB},
		{"markdown", nb.WriteMarkdown},
		{"html", nb.WriteHTML},
		{"report", res.Report().WriteJSON},
		{"trace", reg.WriteTrace},
		{"metrics", reg.WriteMetrics},
	}
	out := make([]Artifact, 0, len(renders))
	for _, r := range renders {
		var buf bytes.Buffer
		if err := r.write(&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", r.key, err)
		}
		out = append(out, Artifact{Key: r.key, Data: buf.Bytes()})
	}
	return out, nil
}
