package main

import (
	"bytes"
	"os"
	"testing"
)

// testDir makes a scratch directory under the (git-ignored) build directory
// and removes it when the test ends.
func testDir(t *testing.T) string {
	t.Helper()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(buildDir, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// inputFiles generates the smoke dataset and every file derived from it in a
// fresh directory, and returns the bytes by file role.
func inputFiles(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	in := &inputs{g: generate(shapeSmoke, seed, probeReserveRows), dir: testDir(t)}
	if err := in.ensureFiles(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for role, path := range map[string]string{
		"csv": in.csvPath(), "plain": in.plainRSTPath(), "cube": in.cubeRSTPath(), "sharded": in.shardedRSTPath(),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[role] = b
	}
	return out
}

func TestInputFilesDeterministic(t *testing.T) {
	a, b, c := inputFiles(t, 5), inputFiles(t, 5), inputFiles(t, 6)
	for role := range a {
		if !bytes.Equal(a[role], b[role]) {
			t.Errorf("%s differs between two generations of one seed", role)
		}
		if bytes.Equal(a[role], c[role]) {
			t.Errorf("%s is identical for two seeds", role)
		}
	}
}

// TestScriptsDeterministic covers everything a workload's script consists
// of: session plans, complaint strings, append batches and the send
// schedule all feed scriptDigest.
func TestScriptsDeterministic(t *testing.T) {
	digest := func(name string, seed int64) string {
		w := workloads[name]()
		if _, err := w.prepare(runConfig{workload: name, seed: seed, seconds: 1, smoke: true, workDir: testDir(t)}); err != nil {
			t.Fatal(err)
		}
		return w.scriptDigest()
	}
	for name := range workloads {
		a, b, c := digest(name, 3), digest(name, 3), digest(name, 4)
		if a != b {
			t.Errorf("%s: script digest differs between two generations of one seed", name)
		}
		if a == c {
			t.Errorf("%s: script digest is identical for two seeds", name)
		}
	}
}

// TestSessionBlockComposition pins the shares the script's comment promises:
// they decide where the median and the 90th percentile fall.
func TestSessionBlockComposition(t *testing.T) {
	byDepth := map[int]int{}
	drills := 0
	for _, sess := range sessionBlock {
		depth, sessionDrills := 0, 0
		if len(sess) > 6 {
			t.Errorf("session with %d complaints", len(sess))
		}
		for _, step := range sess {
			byDepth[depth]++
			if step.drill >= 0 {
				depth++
				sessionDrills++
			}
		}
		if sessionDrills > 2 {
			t.Errorf("session with %d drills", sessionDrills)
		}
		drills += sessionDrills
	}
	if byDepth[0] != 45 || byDepth[1] != 6 || byDepth[2] != 9 || drills != 9 {
		t.Errorf("block composition %v with %d drills, want 45/6/9 with 9", byDepth, drills)
	}
}
