package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed GET /metrics body, keyed by the series text exactly
// as exposed (`name{k="v",...}`); hpod's exposition is deterministic, so
// the key of a series is the same on every scrape.
type scrape map[string]sample

// parseProm reads text exposition format 0.0.4: comment lines are skipped,
// label values may contain escaped quotes, backslashes, newlines and bare
// braces (route patterns such as "GET /v1/studies/{id}").
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, key, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out[key] = s
	}
	return out, sc.Err()
}

func parsePromLine(line string) (sample, string, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, "", fmt.Errorf("prom: no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		j := 1
		for {
			if j >= len(rest) {
				return s, "", fmt.Errorf("prom: unterminated labels in %q", line)
			}
			if rest[j] == '}' {
				j++
				break
			}
			if rest[j] == ',' {
				j++
				continue
			}
			eq := strings.IndexByte(rest[j:], '=')
			if eq < 0 || j+eq+1 >= len(rest) || rest[j+eq+1] != '"' {
				return s, "", fmt.Errorf("prom: bad label in %q", line)
			}
			name := rest[j : j+eq]
			j += eq + 2
			var val strings.Builder
			for {
				if j >= len(rest) {
					return s, "", fmt.Errorf("prom: unterminated label value in %q", line)
				}
				c := rest[j]
				if c == '"' {
					j++
					break
				}
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						c = '\n'
					default:
						c = rest[j]
					}
				}
				val.WriteByte(c)
				j++
			}
			s.labels[name] = val.String()
		}
		rest = rest[j:]
	}
	key := line[:len(line)-len(rest)]
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, "", fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, "", fmt.Errorf("prom: value of %q: %w", line, err)
	}
	s.value = v
	return s, key, nil
}

// delta returns after − before per series; a series absent before counts
// from 0 (a counter first incremented inside the window).
func (after scrape) delta(before scrape) scrape {
	out := make(scrape, len(after))
	for k, s := range after {
		s.value -= before[k].value
		out[k] = s
	}
	return out
}

func (s sample) matches(name string, match []string) bool {
	if s.name != name {
		return false
	}
	for i := 0; i+1 < len(match); i += 2 {
		if s.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// sum adds every series of family name whose labels include the given
// key, value pairs.
func (s scrape) sum(name string, match ...string) float64 {
	t := 0.0
	for _, v := range s {
		if v.matches(name, match) {
			t += v.value
		}
	}
	return t
}

// sumWhere adds every series of family name that keep accepts.
func (s scrape) sumWhere(name string, keep func(labels map[string]string) bool) float64 {
	t := 0.0
	for _, v := range s {
		if v.name == name && keep(v.labels) {
			t += v.value
		}
	}
	return t
}

// quantile estimates a histogram quantile from the name_bucket series by
// linear interpolation inside the bucket that holds it, as Prometheus'
// histogram_quantile does; 0 when the histogram saw nothing.
func (s scrape) quantile(name string, q float64, match ...string) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for _, v := range s {
		if !v.matches(name+"_bucket", match) {
			continue
		}
		le, err := strconv.ParseFloat(v.labels["le"], 64)
		if err != nil {
			continue // +Inf parses; anything else is not a bucket bound
		}
		bs = append(bs, bucket{le, v.value})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe
}
