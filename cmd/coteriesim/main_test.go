package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareLineForEveryRuleAndModel: with checks after every event the
// simulation has an exact chain under every rule and both models, and
// -compare prints it; with a check period it has none, so nothing is
// printed. No count of seeds that lost data is printed: the simulator has
// no storage loss.
func TestCompareLineForEveryRuleAndModel(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		exact bool
	}{
		{[]string{"-model", "protocol", "-rule", "grid"}, true},
		{[]string{"-model", "protocol", "-rule", "majority"}, true},
		{[]string{"-model", "protocol", "-rule", "hierarchical"}, true},
		{[]string{"-model", "paper"}, true},
		{[]string{"-model", "protocol", "-rule", "grid", "-check-every", "0.5"}, false},
		{[]string{"-model", "paper", "-compare=false"}, false},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-n", "9", "-horizon", "2000", "-seeds", "2"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		out := stdout.String()
		if got := strings.Contains(out, "exact chain: write "); got != tc.exact {
			t.Errorf("%v: exact chain line printed = %v, want %v:\n%s", tc.args, got, tc.exact, out)
		}
		if !strings.Contains(out, "events: ") || strings.Contains(out, "events: 0\n") {
			t.Errorf("%v: no events counted over a 2000-unit horizon:\n%s", tc.args, out)
		}
		if strings.Contains(out, "lost data") {
			t.Errorf("%v: prints a data-loss count:\n%s", tc.args, out)
		}
	}
}

// TestBadArguments: an unknown rule or model, or no seed to average over,
// is a one-line error and exit status 1; an unknown flag is exit status 2.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-rule", "bogus"}, 1, `coteriesim: unknown rule "bogus"` + "\n"},
		{[]string{"-model", "bogus"}, 1, `coteriesim: unknown model "bogus"` + "\n"},
		{[]string{"-seeds", "0"}, 1, "coteriesim: -seeds must be at least 1, got 0\n"},
		{[]string{"-obs"}, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if tc.msg != "" && stderr.String() != tc.msg {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", tc.args, stdout.String())
		}
	}
}
