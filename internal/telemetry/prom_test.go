package telemetry

import (
	"bufio"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestWritePrometheusShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster_reconnects_total", "Re-established executor connections.").Add(3)
	r.Gauge("inflight_tasks", "Tasks currently dispatched.").Set(2.5)
	v := r.HistogramVec("engine_op_seconds", "Per-op latency.", []float64{0.01, 0.1}, "op")
	v.With("filter").Observe(0.005)
	v.With("filter").Observe(0.05)
	v.With("project").Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cluster_reconnects_total counter",
		"cluster_reconnects_total 3",
		"# TYPE inflight_tasks gauge",
		"inflight_tasks 2.5",
		"# TYPE engine_op_seconds histogram",
		`engine_op_seconds_bucket{op="filter",le="0.01"} 1`,
		`engine_op_seconds_bucket{op="filter",le="0.1"} 2`,
		`engine_op_seconds_bucket{op="filter",le="+Inf"} 2`,
		`engine_op_seconds_count{op="filter"} 2`,
		`engine_op_seconds_bucket{op="project",le="+Inf"} 1`,
		`engine_op_seconds_sum{op="project"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		v := r.CounterVec("z_total", "Zs.", "k")
		v.With("b").Inc()
		v.With("a").Add(2)
		r.Counter("a_total", "As.").Inc()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("exposition must be deterministic:\n%s\nvs\n%s", a, b)
	}
	// Families sorted by name, label values sorted within a family.
	if strings.Index(a, "a_total") > strings.Index(a, "z_total") {
		t.Fatalf("families not sorted:\n%s", a)
	}
	if strings.Index(a, `z_total{k="a"}`) > strings.Index(a, `z_total{k="b"}`) {
		t.Fatalf("label values not sorted:\n%s", a)
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("weird metric-name", "help with \\ and\nnewline", "label name!")
	v.With("va\"lue\\with\nnasties").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("escaped exposition invalid: %v\n%s", err, out)
	}
	if !strings.Contains(out, `weird_metric_name{label_name_="va\"lue\\with\nnasties"} 1`) {
		t.Fatalf("unexpected escaping:\n%s", out)
	}
}

// ValidateExposition is a strict line-level checker for the Prometheus
// text format: every line is a comment, blank, or `name{labels} value`
// with a legal name, balanced quoted label values and a parseable
// float. The fuzz target holds WritePrometheus to this contract for
// arbitrary registry contents.
func ValidateExposition(s string) error {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		rest, err := validateName(line)
		if err != nil {
			return fmt.Errorf("line %d: %w (%q)", lineNo, err, line)
		}
		if strings.HasPrefix(rest, "{") {
			end, err := validateLabels(rest)
			if err != nil {
				return fmt.Errorf("line %d: %w (%q)", lineNo, err, line)
			}
			rest = rest[end:]
		}
		if !strings.HasPrefix(rest, " ") {
			return fmt.Errorf("line %d: missing space before value (%q)", lineNo, line)
		}
		val := strings.TrimPrefix(rest, " ")
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := parseFloat(val); err != nil {
				return fmt.Errorf("line %d: bad value %q: %w", lineNo, val, err)
			}
		}
	}
	return sc.Err()
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

func validateName(line string) (rest string, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0) {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", fmt.Errorf("empty or illegal metric name")
	}
	return line[i:], nil
}

func validateLabels(s string) (end int, err error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// label name
		start := i
		for i < len(s) && (s[i] == '_' || (s[i] >= 'a' && s[i] <= 'z') || (s[i] >= 'A' && s[i] <= 'Z') || (s[i] >= '0' && s[i] <= '9' && i > start)) {
			i++
		}
		if i == start {
			return 0, fmt.Errorf("empty label name at %d", i)
		}
		if i+1 >= len(s) || s[i] != '=' || s[i+1] != '"' {
			return 0, fmt.Errorf("expected =\" after label name at %d", i)
		}
		i += 2
		// quoted value with escapes
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			if s[i] == '\n' {
				return 0, fmt.Errorf("raw newline in label value")
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape")
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("illegal escape \\%c", s[i+1])
				}
				i += 2
				continue
			}
			if s[i] == '"' {
				i++
				break
			}
			i++
		}
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		3:           "3",
		2.5:         "2.5",
		-1:          "-1",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Fatalf("formatValue(NaN) = %q", got)
	}
}
