package main

import (
	"strings"
	"testing"
)

// TestFlagValidation covers the CLI's argument rejections, in
// particular the -mesh/-topology conflict that used to be silently
// resolved by flag-processing order instead of reported.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"mesh vs crossbar conflict", []string{"-tiles", "2", "-mesh", "-topology", "crossbar", "-table", "1"},
			"-mesh conflicts with -topology"},
		{"mesh vs direct conflict", []string{"-tiles", "2", "-mesh", "-topology", "direct", "-table", "1"},
			"-mesh conflicts with -topology"},
		{"negative workers", []string{"-workers", "-1", "-table", "1"},
			"-workers must be >= 0"},
		{"negative window", []string{"-window", "-1", "-table", "1"},
			"-window must be >= 0"},
		{"negative scale", []string{"-scale", "-0.5", "-table", "1"},
			"-scale must be positive"},
		{"removed cell-workers flag", []string{"-cell-workers", "2", "-table", "1"},
			"flag provided but not defined: -cell-workers"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}

	// Redundant but consistent spellings stay accepted: -mesh alongside
	// -topology mesh names the same interconnect.
	if err := run([]string{"-tiles", "2", "-mesh", "-topology", "mesh", "-table", "1"}); err != nil {
		t.Errorf("-mesh -topology mesh: unexpected error %v", err)
	}
	// -window 0 keeps its timed-replay meaning (validation rejects only
	// negatives); no replay file is involved when just printing a table.
	if err := run([]string{"-window", "0", "-table", "1"}); err != nil {
		t.Errorf("-window 0: unexpected error %v", err)
	}
}
