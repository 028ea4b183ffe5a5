package atpg

import (
	"context"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/scan"
)

// TestCompactReverse verifies that reverse static compaction never loses
// coverage and never increases the vector count.
func TestCompactReverse(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	u := fault.NewUniverse(n)
	cfg := DefaultGenConfig()
	cfg.MaxRandomWords = 16 // deliberately generous so there is slack to trim
	cfg.UselessLimit = 8
	g := mustATPG(t, c, u, cfg)
	before := g.Vectors
	after, err := CompactReverseContext(context.Background(), c, u, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("compaction grew vectors: %d -> %d", before, after)
	}
	t.Logf("static compaction: %d -> %d vectors", before, after)
}
