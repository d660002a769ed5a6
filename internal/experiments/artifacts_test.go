package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactsMatchResults pins the whole reproduction: the default
// runner regenerates every table and figure byte for byte as committed in
// results/, in the form `experiments -out` writes. A deliberate change to
// an artifact regenerates them with `go run ./cmd/experiments -out
// results/` and explains the diff.
func TestArtifactsMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size artifact regeneration skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-size artifact regeneration skipped under the race detector")
	}
	arts, err := NewRunner(Config{}).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(IDs()) {
		t.Fatalf("All() returned %d artifacts, want %d", len(arts), len(IDs()))
	}
	for _, a := range arts {
		path := filepath.Join("..", "..", "results", a.ID+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", a.ID, err)
			continue
		}
		if got := a.Title + "\n\n" + a.Text; got != string(want) {
			t.Errorf("%s differs from %s:\n%s", a.ID, path, firstDiff(got, string(want)))
		}
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
