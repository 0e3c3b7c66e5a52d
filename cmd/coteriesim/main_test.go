package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFigure3LineOnlyForGrid: the analytic Figure 3 value models the
// dynamic grid, so only -rule grid prints it; every rule prints the event
// count and the number of seeds that lost data.
func TestFigure3LineOnlyForGrid(t *testing.T) {
	for _, tc := range []struct {
		rule    string
		figure3 bool
	}{
		{"grid", true},
		{"majority", false},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-n", "9", "-model", "protocol", "-rule", tc.rule, "-horizon", "2000", "-seeds", "2"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-rule %s: exit %d, stderr %q", tc.rule, code, stderr.String())
		}
		out := stdout.String()
		if got := strings.Contains(out, "analytic Figure 3 value:"); got != tc.figure3 {
			t.Errorf("-rule %s: Figure 3 line printed = %v, want %v:\n%s", tc.rule, got, tc.figure3, out)
		}
		if !strings.Contains(out, "events: ") || !strings.Contains(out, "seeds that lost data: 0") {
			t.Errorf("-rule %s: no event or data-loss count:\n%s", tc.rule, out)
		}
		if strings.Contains(out, "events: 0 ") {
			t.Errorf("-rule %s: a 2000-unit horizon processed no events:\n%s", tc.rule, out)
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
