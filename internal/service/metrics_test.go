package service

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// TestMetricsLabelEscaping renders series whose names need escaping and
// reads every series label back under the text format's grammar: one bad
// label value would break the whole scrape.
func TestMetricsLabelEscaping(t *testing.T) {
	ts := newTestServer(t)
	names := []string{"tab\there", `quote"here`, "newline\nhere", "plain"}
	for _, name := range names {
		createSeries(t, ts, url.PathEscape(name), 60)
	}
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	seen := map[string]bool{}
	for _, v := range seriesLabelValues(t, string(body)) {
		seen[v] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("series %q missing from the exposition:\n%s", name, body)
		}
	}
	// A series name cannot hold a backslash (timeseries.ValidName), but the
	// escaper must still cover the format's third escape.
	if got, want := labelValue("a\\b\"c\nd\te"), `a\\b\"c\nd`+"\te"; got != want {
		t.Errorf("labelValue = %q, want %q", got, want)
	}
}

// seriesLabelValues parses every series="..." label of a text exposition,
// unescaping each value. It fails the test on any escape other than \\, \"
// and \n, and on a value not closed on its own line.
func seriesLabelValues(t *testing.T, body string) []string {
	t.Helper()
	const open = `{series="`
	var out []string
	for _, line := range strings.Split(body, "\n") {
		i := strings.Index(line, open)
		if i < 0 {
			continue
		}
		rest := line[i+len(open):]
		var b strings.Builder
		closed := false
	scan:
		for k := 0; k < len(rest); k++ {
			switch c := rest[k]; {
			case c == '"':
				closed = true
				break scan
			case c != '\\':
				b.WriteByte(c)
			case k+1 == len(rest):
				break scan
			default:
				k++
				switch rest[k] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					t.Fatalf("escape \\%c in %q: the text format allows only \\\\, \\\" and \\n", rest[k], line)
				}
			}
		}
		if !closed {
			t.Fatalf("label value not closed on its line: %q", line)
		}
		out = append(out, b.String())
	}
	return out
}
