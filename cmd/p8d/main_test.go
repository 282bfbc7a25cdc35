package main

import (
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestValidateFlags walks every rejection path of validateFlags and
// checks that the flag defaults (and the legal cache settings) pass.
func TestValidateFlags(t *testing.T) {
	type flags struct {
		queue, jworkers int
		cacheMB         int64
		kworkers        int
		nocache         bool
		cacheDir        string
	}
	defaults := flags{queue: 16, jworkers: 2, cacheMB: 64}
	with := func(edit func(*flags)) flags {
		f := defaults
		edit(&f)
		return f
	}
	cases := []struct {
		name    string
		f       flags
		wantErr string // "" means accepted
	}{
		{"defaults", defaults, ""},
		{"nocache", with(func(f *flags) { f.nocache = true }), ""},
		{"cachedir", with(func(f *flags) { f.cacheDir = "dir" }), ""},
		{"no queue", with(func(f *flags) { f.queue = 0 }), "-queue"},
		{"no job workers", with(func(f *flags) { f.jworkers = 0 }), "-jobworkers"},
		{"no cache budget", with(func(f *flags) { f.cacheMB = 0 }), "-cachemb"},
		{"negative kernel workers", with(func(f *flags) { f.kworkers = -1 }), "-kernelworkers"},
		{"nocache with cachedir", with(func(f *flags) { f.nocache, f.cacheDir = true, "dir" }), "-nocache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			err := validateFlags(f.queue, f.jworkers, f.cacheMB, f.kworkers, f.nocache, f.cacheDir)
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

// TestFsyncPolicy: the default resolves without a journal, an explicit
// -fsync needs -journal, and only the two policy names parse.
func TestFsyncPolicy(t *testing.T) {
	cases := []struct {
		name       string
		value      string
		explicit   bool
		journalDir string
		want       journal.SyncPolicy
		wantErr    string // "" means accepted
	}{
		{"default without journal", "always", false, "", journal.SyncAlways, ""},
		{"default with journal", "always", false, "wal", journal.SyncAlways, ""},
		{"explicit always", "always", true, "wal", journal.SyncAlways, ""},
		{"explicit off", "off", true, "wal", journal.SyncNever, ""},
		{"explicit without journal", "off", true, "", 0, "-fsync requires -journal"},
		{"unknown policy", "sometimes", true, "wal", 0, "sometimes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := fsyncPolicy(tc.value, tc.explicit, tc.journalDir)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.wantErr == "" && got != tc.want:
				t.Errorf("policy = %v, want %v", got, tc.want)
			case tc.wantErr != "" && err == nil:
				t.Errorf("accepted as %v, want an error mentioning %q", got, tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
