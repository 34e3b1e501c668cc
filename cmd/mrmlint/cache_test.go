package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/performability/csrl/internal/lint"
)

// writeCacheModule lays out a two-package module (a imports b) in a temp
// dir. Package b carries a deliberate floatcmp finding so the diagnostic
// stream is non-empty and replay can be compared byte for byte.
func writeCacheModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/cachemod\n\ngo 1.22\n",
		"b/b.go": `package b

// Eq compares two floats the wrong way on purpose: the fixture needs a
// stable finding to replay from the cache.
func Eq(a, b float64) bool { return a == b }
`,
		"a/a.go": `package a

import "example.com/cachemod/b"

// IsUnit reports whether x equals one, via the helper package.
func IsUnit(x float64) bool { return b.Eq(x, 1) }
`,
	}
	for name, src := range files {
		full := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lintModule runs the cached pipeline over the whole temp module with
// -json rendering and returns the finding count, the cache and the exact
// output bytes.
func lintModule(t *testing.T, dir, cacheDir string) (int, *lintCache, []byte) {
	t.Helper()
	var out bytes.Buffer
	n, cache, err := lintPackagesCached(&out, dir, []string{"./..."}, lint.All(), emitJSON, cacheDir)
	if err != nil {
		t.Fatalf("lintPackagesCached: %v", err)
	}
	return n, cache, out.Bytes()
}

func TestCacheWarmRunByteIdentical(t *testing.T) {
	dir := writeCacheModule(t)
	cacheDir := filepath.Join(dir, ".mrmlint-cache")

	nCold, cold, coldOut := lintModule(t, dir, cacheDir)
	if cold.Cold != 2 || cold.Warm != 0 {
		t.Errorf("cold run counters = %d cold / %d warm, want 2/0", cold.Cold, cold.Warm)
	}
	if nCold == 0 {
		t.Fatalf("fixture module produced no findings; output:\n%s", coldOut)
	}

	nWarm, warm, warmOut := lintModule(t, dir, cacheDir)
	if warm.Cold != 0 || warm.Warm != 2 {
		t.Errorf("warm run counters = %d cold / %d warm, want 0/2", warm.Cold, warm.Warm)
	}
	if nWarm != nCold {
		t.Errorf("warm run found %d diagnostics, cold found %d", nWarm, nCold)
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Errorf("warm -json output differs from cold:\ncold:\n%swarm:\n%s", coldOut, warmOut)
	}
}

func TestCacheSourceChangeInvalidatesDependents(t *testing.T) {
	dir := writeCacheModule(t)
	cacheDir := filepath.Join(dir, ".mrmlint-cache")
	lintModule(t, dir, cacheDir) // prime

	// Touching the dependency must cool both b and its importer a.
	bFile := filepath.Join(dir, "b", "b.go")
	src, err := os.ReadFile(bFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bFile, append(src, []byte("\n// edited\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cache, _ := lintModule(t, dir, cacheDir)
	if cache.Cold != 2 || cache.Warm != 0 {
		t.Errorf("after editing b: %d cold / %d warm, want 2/0 (dependent a must re-analyze)", cache.Cold, cache.Warm)
	}

	// Touching only the leaf importer leaves the dependency warm.
	aFile := filepath.Join(dir, "a", "a.go")
	src, err = os.ReadFile(aFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aFile, append(src, []byte("\n// edited\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cache, _ = lintModule(t, dir, cacheDir)
	if cache.Cold != 1 || cache.Warm != 1 {
		t.Errorf("after editing a: %d cold / %d warm, want 1/1", cache.Cold, cache.Warm)
	}
}

func TestCacheSaltCoversAnalyzerSet(t *testing.T) {
	dir := writeCacheModule(t)
	cacheDir := filepath.Join(dir, ".mrmlint-cache")
	lintModule(t, dir, cacheDir) // prime with the full registry

	// A different enabled set changes the salt (the same mechanism that
	// folds in lint.RegistryHash, so an analyzer version bump invalidates
	// the same way), and every package must re-analyze.
	var out bytes.Buffer
	subset, err := selectAnalyzers("floatcmp", "")
	if err != nil {
		t.Fatal(err)
	}
	_, cache, err := lintPackagesCached(&out, dir, []string{"./..."}, subset, emitJSON, cacheDir)
	if err != nil {
		t.Fatalf("lintPackagesCached: %v", err)
	}
	if cache.Cold != 2 || cache.Warm != 0 {
		t.Errorf("subset run counters = %d cold / %d warm, want 2/0", cache.Cold, cache.Warm)
	}

	// Directly: caches built over different analyzer sets must key the
	// same package differently.
	full, err := newLintCache(cacheDir, dir, "example.com/cachemod", "1.22", "go1.24.0", lint.All())
	if err != nil {
		t.Fatal(err)
	}
	partial, err := newLintCache(cacheDir, dir, "example.com/cachemod", "1.22", "go1.24.0", subset)
	if err != nil {
		t.Fatal(err)
	}
	bDir := filepath.Join(dir, "b")
	kFull, err := full.key(bDir)
	if err != nil {
		t.Fatal(err)
	}
	kPartial, err := partial.key(bDir)
	if err != nil {
		t.Fatal(err)
	}
	if kFull == kPartial {
		t.Error("cache key did not change with the enabled analyzer set")
	}

	// Standard-library types come from the toolchain: another Go release
	// keys the same package differently.
	other, err := newLintCache(cacheDir, dir, "example.com/cachemod", "1.22", "go1.25.0", lint.All())
	if err != nil {
		t.Fatal(err)
	}
	kOther, err := other.key(bDir)
	if err != nil {
		t.Fatal(err)
	}
	if kFull == kOther {
		t.Error("cache key did not change with the toolchain version")
	}
}

func TestCacheCorruptEntryIsCold(t *testing.T) {
	dir := writeCacheModule(t)
	cacheDir := filepath.Join(dir, ".mrmlint-cache")
	_, _, coldOut := lintModule(t, dir, cacheDir)

	// Truncate every stored entry; the next run must fall back to a full
	// cold analysis (not error, not emit garbage) and rewrite the store.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(cacheDir, e.Name()), []byte("{corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, cache, out := lintModule(t, dir, cacheDir)
	if cache.Cold != 2 || cache.Warm != 0 {
		t.Errorf("corrupt store served %d warm package(s), want pure cold", cache.Warm)
	}
	if !bytes.Equal(out, coldOut) {
		t.Error("recovery run output differs from the original cold run")
	}

	_, cache, _ = lintModule(t, dir, cacheDir)
	if cache.Warm != 2 {
		t.Errorf("store was not repaired: %d warm, want 2", cache.Warm)
	}
}

// BenchmarkLintModule times the real module, cold (fresh cache every
// iteration) versus warm (primed cache).
func BenchmarkLintModule(b *testing.B) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		b.Fatalf("loader: %v", err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cacheDir, err := os.MkdirTemp(b.TempDir(), "cache")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := lintPackagesCached(io.Discard, loader.ModuleDir, []string{"./..."}, lint.All(), emitPlain, cacheDir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cacheDir := b.TempDir()
		if _, _, err := lintPackagesCached(io.Discard, loader.ModuleDir, []string{"./..."}, lint.All(), emitPlain, cacheDir); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := lintPackagesCached(io.Discard, loader.ModuleDir, []string{"./..."}, lint.All(), emitPlain, cacheDir); err != nil {
				b.Fatal(err)
			}
		}
	})
}
