package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cachebox/internal/store"
)

// fig7ModelSHA256 is the SHA-256 of the tiny fig7 model artifact. It
// was recorded from the materialised-ground-truth path (whole trace,
// cachesim.RunTrace, heatmap.BuildPair) before that path was folded
// into the streamed one, so it pins the streamed path to the
// materialised model byte for byte.
const fig7ModelSHA256 = "9b9a4d0e93e153da3ade558e7020688e64079386723aa1e0be3cfa54f0a09f97"

// fig7Model runs a fresh tiny fig7 into its own artifact dir and store
// and returns the trained model's artifact bytes.
func fig7Model(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := NewRunner(Tiny, t.TempDir(), &buf)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.Store = st
	r.Workers = workers
	if _, err := r.Fig7(); err != nil {
		t.Fatalf("fig7 (-j%d): %v\n%s", workers, err, buf.String())
	}
	data, err := os.ReadFile(filepath.Join(r.ArtifactsDir, "tiny-fig7-rq1-mixed.cbgan"))
	if err != nil {
		t.Fatalf("fig7 (-j%d) left no model artifact: %v", workers, err)
	}
	return data
}

// The golden streamed-vs-materialised contract: a fig7 run whose
// ground truth streams through internal/stream must produce the model
// artifact the materialised path produced, at any worker-pool width.
func TestFig7StreamedMatchesMaterialised(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	j1 := fig7Model(t, 1)
	if sum := sha256.Sum256(j1); hex.EncodeToString(sum[:]) != fig7ModelSHA256 {
		t.Fatalf("-j1 fig7 model sha256 %x, want pinned %s", sum, fig7ModelSHA256)
	}
	if j8 := fig7Model(t, 8); !bytes.Equal(j1, j8) {
		t.Fatal("-j8 fig7 model differs from the -j1 run")
	}
}
