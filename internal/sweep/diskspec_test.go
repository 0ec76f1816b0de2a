package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/store"
)

// TestDiskSpecsGolden pins the on-disk identity of every artifact kind:
// the fully-resolved spec strings internal/store hashes into file keys.
// A change here orphans every entry in users' existing -store directories
// (they would silently miss and recompute), so it must be deliberate — a
// persistVersion bump, not a side effect of moving code. Regenerate with:
//
//	go test ./internal/sweep -run TestDiskSpecsGolden -update
func TestDiskSpecsGolden(t *testing.T) {
	a := NewArtifacts(42, 0.5, 250, 250, 1)
	const name = "TPC-C"
	var buf bytes.Buffer
	for _, m := range []struct {
		label   string
		machine sim.Config
	}{{"shallow", sim.Shallow()}, {"deep", sim.Deep()}} {
		for _, e := range []struct {
			kind string
			spec string
		}{
			{"profset", a.setEntry("profset", name).Spec},
			{"evalset", a.setEntry("evalset", name).Spec},
			{"profile", a.profileEntry(name, m.machine).Spec},
			{"result", a.resultEntry(name, string(sched.ADDICT), machineSig(m.machine)).Spec},
		} {
			fmt.Fprintf(&buf, "%s %s\n  spec: %s\n  key:  %s\n", m.label, e.kind, e.spec, store.Key(e.spec))
		}
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "disk_specs.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to regenerate): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("on-disk artifact specs changed from golden %s: %s\n(regenerate with -update only together with a persistVersion bump)",
			path, firstDiff(want, got))
	}
}
