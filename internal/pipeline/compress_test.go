package pipeline

import (
	"bytes"
	"testing"

	"comparenb/internal/datagen"
)

// TestPipelineNoCompressByteIdentical is the pipeline-level half of the
// cube kernel's two-view differential gate: on a dataset large enough that
// every cube build reads the compressed view, a NoCompress run (every
// column raw-alias) must produce byte-identical notebooks and reports
// (modulo the recorded flag itself and the compression stats, which exist
// exactly to record the view).
func TestPipelineNoCompressByteIdentical(t *testing.T) {
	ds, err := datagen.ENEDISLike(11, 4000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig()
	cfg.Perms = 80
	cfg.Seed = 11
	cfg.Threads = 2
	cfg.EpsT = 5
	cfg.EpsD = 1.5

	run := func(noCompress bool) (ipynb, md []byte, rep Report) {
		cfg.NoCompress = noCompress
		res, err := Generate(ds.Rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nb := BuildNotebook(res)
		var bufI, bufM bytes.Buffer
		if err := nb.WriteIPYNB(&bufI); err != nil {
			t.Fatal(err)
		}
		if err := nb.WriteMarkdown(&bufM); err != nil {
			t.Fatal(err)
		}
		rep = res.Report()
		return bufI.Bytes(), bufM.Bytes(), rep
	}

	ipynbEnc, mdEnc, repEnc := run(false)
	ipynbRaw, mdRaw, repRaw := run(true)

	if len(ipynbEnc) == 0 {
		t.Fatal("encoded run produced no notebook")
	}
	if !bytes.Equal(ipynbEnc, ipynbRaw) {
		t.Errorf("ipynb differs between encoded and NoCompress runs (%d vs %d bytes)", len(ipynbEnc), len(ipynbRaw))
	}
	if !bytes.Equal(mdEnc, mdRaw) {
		t.Errorf("markdown differs between encoded and NoCompress runs (%d vs %d bytes)", len(mdEnc), len(mdRaw))
	}

	// The runs must agree on every analytical fact; only the recorded
	// configuration and the compression section may differ.
	if len(repEnc.Compression) == 0 {
		t.Error("encoded run reported no per-column compression stats")
	}
	if len(repRaw.Compression) != 0 {
		t.Errorf("NoCompress run reported %d compression entries, want none", len(repRaw.Compression))
	}
	if !repRaw.Config.NoCompress || repEnc.Config.NoCompress {
		t.Error("reports do not record the NoCompress flag faithfully")
	}
	repEnc.Compression, repRaw.Compression = nil, nil
	repEnc.Config.NoCompress, repRaw.Config.NoCompress = false, false
	repEnc.Timings, repRaw.Timings = ReportTimings{}, ReportTimings{}
	var a, b bytes.Buffer
	if err := repEnc.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := repRaw.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("normalised reports differ between encoded and NoCompress runs:\n%s\nvs\n%s", a.String(), b.String())
	}
}
