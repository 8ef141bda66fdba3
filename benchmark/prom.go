package main

import (
	"strconv"
	"strings"
)

// promSample is one line of the Prometheus text format the program's
// /metrics endpoint and Registry.WritePrometheus produce.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the text exposition format: `name{k="v",...} value`
// lines; comments and lines it cannot read are skipped.
func parseProm(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 && strings.HasSuffix(s.name, "}") {
			for _, kv := range splitLabels(s.name[open+1 : len(s.name)-1]) {
				if k, q, ok := strings.Cut(kv, "="); ok {
					if uq, err := strconv.Unquote(q); err == nil {
						s.labels[k] = uq
					}
				}
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out
}

// splitLabels splits `a="x",b="y,z"` at the commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	start, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
