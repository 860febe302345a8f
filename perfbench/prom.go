package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a deployment's Prometheus text
// exposition: series (name plus labels, as printed) → value.
type promSnapshot map[string]float64

func scrape(d deployment) (promSnapshot, error) {
	var buf bytes.Buffer
	if err := d.writeMetrics(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.Bytes()), nil
}

func parseProm(text []byte) promSnapshot {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] += v
	}
	return snap
}

// seriesName is the metric name of a series key.
func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// delta returns end − start per series.
func (end promSnapshot) delta(start promSnapshot) promSnapshot {
	out := make(promSnapshot, len(end))
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

// add adds o to s, series by series.
func (s promSnapshot) add(o promSnapshot) {
	for k, v := range o {
		s[k] += v
	}
}

// sum adds every series of metric name.
func (s promSnapshot) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if seriesName(k) == name {
			total += v
		}
	}
	return total
}

// max is the largest series of metric name (one per replica, say).
func (s promSnapshot) max(name string) float64 {
	m := 0.0
	for k, v := range s {
		if seriesName(k) == name {
			m = math.Max(m, v)
		}
	}
	return m
}

// quantile estimates the q-quantile of histogram name, summed over its
// label sets, by linear interpolation within the cumulative buckets. It
// returns 0 for an empty histogram.
func (s promSnapshot) quantile(name string, q float64) float64 {
	cum := make(map[float64]float64)
	for k, v := range s {
		if seriesName(k) != name+"_bucket" {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			continue
		}
		cum[le] += v
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	prevLe, prevCum := 0.0, 0.0
	for _, le := range bounds {
		c := cum[le]
		if c >= rank {
			if math.IsInf(le, 1) {
				return prevLe
			}
			if c == prevCum {
				return le
			}
			return prevLe + (le-prevLe)*(rank-prevCum)/(c-prevCum)
		}
		prevLe, prevCum = le, c
	}
	return prevLe
}
