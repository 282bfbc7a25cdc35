package main

import (
	"runtime"
	"strings"
	"testing"
)

// TestValidateFlags walks every rejection path of validateFlags and
// checks that the flag defaults (and a few legal combinations) pass.
func TestValidateFlags(t *testing.T) {
	type flags struct {
		workers, kworkers, shards int
		faults                    string
		faultseed                 uint64
		ablations                 bool
	}
	defaults := flags{workers: runtime.NumCPU()}
	cases := []struct {
		name    string
		f       flags
		wantErr string // "" means accepted
	}{
		{"defaults", defaults, ""},
		{"sequential", flags{workers: 1}, ""},
		{"shards divide the E870", flags{workers: 1, shards: 8}, ""},
		{"canned plan", flags{workers: 1, faults: "worst-day"}, ""},
		{"seeded plan", flags{workers: 1, faultseed: 7}, ""},
		{"ablations", flags{workers: 1, ablations: true}, ""},
		{"no workers", flags{workers: 0}, "-parallel"},
		{"negative kernel workers", flags{workers: 1, kworkers: -1}, "-kernelworkers"},
		{"shards 3 on 8 sockets", flags{workers: 1, shards: 3}, "-shards 3"},
		{"two plan sources", flags{workers: 1, faults: "worst-day", faultseed: 7}, "mutually exclusive"},
		{"ablations with a plan", flags{workers: 1, ablations: true, faults: "worst-day"}, "-ablations"},
		{"ablations with a seed", flags{workers: 1, ablations: true, faultseed: 7}, "-ablations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.f.workers, tc.f.kworkers, tc.f.shards, tc.f.faults, tc.f.faultseed, tc.f.ablations)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Errorf("accepted, want an error mentioning %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
