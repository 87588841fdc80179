package core

import (
	"flag"
	"strings"
	"testing"
)

// TestBindFlags: the shared engine flags parse into the Config, with
// -shared-cache stored inverted and listed with its true default.
func TestBindFlags(t *testing.T) {
	var cfg Config
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	BindFlags(fs, &cfg)
	if cfg.Parallel != 1 || cfg.DisableSharedCache {
		t.Errorf("defaults: Parallel=%d DisableSharedCache=%v", cfg.Parallel, cfg.DisableSharedCache)
	}
	var usage strings.Builder
	fs.SetOutput(&usage)
	fs.PrintDefaults()
	if !strings.Contains(usage.String(), "-shared-cache\n") || !strings.Contains(usage.String(), "(default true)") {
		t.Errorf("-shared-cache usage:\n%s", usage.String())
	}
	err := fs.Parse([]string{"-parallel", "3", "-workers", "2", "-shared-cache=false",
		"-scope", "all,-f", "-summaries"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Parallel != 3 || cfg.Workers != 2 || !cfg.DisableSharedCache ||
		cfg.Scope != "all,-f" || !cfg.Summaries {
		t.Errorf("parsed %+v", cfg)
	}
}
