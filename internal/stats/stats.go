// Package stats provides the counters and aggregation helpers used by the
// experiment harness: run summaries, speedups, geometric means and simple
// fixed-width table formatting.
package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Geomean returns the geometric mean of xs. It returns 0 for an empty slice
// and panics on non-positive values, which always indicate a bad experiment.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Percentile returns the p-quantile (p in [0, 1], clamped) of xs using
// linear interpolation between closest ranks. It does not modify xs and
// returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p = math.Min(math.Max(p, 0), 1)
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Speedup returns base/measured: >1 means measured is faster than base when
// the inputs are execution times.
func Speedup(baseCycles, cycles uint64) float64 {
	if cycles == 0 {
		panic("stats: zero cycle count")
	}
	return float64(baseCycles) / float64(cycles)
}

// Counter is a named monotonically increasing counter.
type Counter struct {
	Name  string
	Value uint64
}

// Group is an ordered collection of named counters, used for run reports.
// Add and Get scan the slice: a group holds a few dozen names at most (a
// run's Detail has 23), too few for an index to pay for itself.
type Group struct {
	counters []Counter
}

// NewGroup returns an empty group.
func NewGroup() *Group {
	return &Group{}
}

// Add increments the named counter by n, creating it if needed.
func (g *Group) Add(name string, n uint64) {
	for i := range g.counters {
		if g.counters[i].Name == name {
			g.counters[i].Value += n
			return
		}
	}
	g.counters = append(g.counters, Counter{Name: name, Value: n})
}

// Get returns the value of the named counter (zero if absent).
func (g *Group) Get(name string) uint64 {
	for _, c := range g.counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Names returns the counter names in insertion order.
func (g *Group) Names() []string {
	names := make([]string, len(g.counters))
	for i, c := range g.counters {
		names[i] = c.Name
	}
	return names
}

// String renders the group sorted by name, one counter per line.
func (g *Group) String() string {
	cs := make([]Counter, len(g.counters))
	copy(cs, g.counters)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%-32s %12d\n", c.Name, c.Value)
	}
	return b.String()
}

// MarshalJSON encodes the group as a name-to-value object sorted by name,
// so encodings are byte-stable regardless of insertion order.
func (g *Group) MarshalJSON() ([]byte, error) {
	cs := make([]Counter, len(g.counters))
	copy(cs, g.counters)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	var b bytes.Buffer
	b.WriteByte('{')
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(',')
		}
		name, err := json.Marshal(c.Name)
		if err != nil {
			return nil, err
		}
		b.Write(name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(c.Value, 10))
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON decodes exactly what MarshalJSON writes, in any JSON
// whitespace (a document written with MarshalIndent spreads the object
// over lines): an object whose names strictly ascend and whose values are
// unsigned decimal integers. Anything else is an error. It scans the
// object once, straight into the counters; they keep the encoded order,
// so a decoded group re-encodes byte-identically.
func (g *Group) UnmarshalJSON(data []byte) error {
	// One copy of the object holds every name written without escapes.
	d := groupDecoder{text: string(data)}
	if !d.consume('{') {
		return d.fail("expected '{'")
	}
	// Each counter is written with one ':', so this bounds their number.
	cs := make([]Counter, 0, strings.Count(d.text, ":"))
	if !d.consume('}') {
		for {
			name, err := d.name()
			if err != nil {
				return err
			}
			if len(cs) > 0 && name <= cs[len(cs)-1].Name {
				return d.fail(fmt.Sprintf("name %q out of order", name))
			}
			if !d.consume(':') {
				return d.fail("expected ':'")
			}
			v, err := d.uint()
			if err != nil {
				return err
			}
			cs = append(cs, Counter{Name: name, Value: v})
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return d.fail("expected ',' or '}'")
			}
		}
	}
	if d.space(); d.i != len(d.text) {
		return d.fail("unexpected data after the object")
	}
	g.counters = cs
	return nil
}

// groupDecoder is UnmarshalJSON's cursor over one encoded group.
type groupDecoder struct {
	text string
	i    int
}

func (d *groupDecoder) fail(what string) error {
	return fmt.Errorf("stats: decoding group: %s at offset %d", what, d.i)
}

// space skips JSON whitespace.
func (d *groupDecoder) space() {
	for d.i < len(d.text) {
		switch d.text[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then reports whether the next byte is c,
// stepping past it if so.
func (d *groupDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.text) && d.text[d.i] == c {
		d.i++
		return true
	}
	return false
}

// name reads a quoted counter name. A name written without escapes is a
// substring of the decoder's text; only an escaped one is copied.
func (d *groupDecoder) name() (string, error) {
	if !d.consume('"') {
		return "", d.fail("expected a quoted name")
	}
	start := d.i
	ascii := true
	for ; d.i < len(d.text); d.i++ {
		switch c := d.text[d.i]; {
		case c == '"':
			s := d.text[start:d.i]
			d.i++
			if !ascii && !utf8.ValidString(s) {
				return "", d.fail("invalid UTF-8 in a name")
			}
			return s, nil
		case c == '\\':
			d.i = start
			return d.unquote()
		case c < 0x20:
			return "", d.fail("control byte in a name")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", d.fail("unterminated name")
}

// unquote reads a name holding escapes, from just past its opening quote.
// It accepts every JSON escape except a surrogate half, which json.Marshal
// never writes: it writes non-ASCII text as UTF-8.
func (d *groupDecoder) unquote() (string, error) {
	var b []byte
	for d.i < len(d.text) {
		c := d.text[d.i]
		switch {
		case c == '"':
			d.i++
			if !utf8.Valid(b) {
				return "", d.fail("invalid UTF-8 in a name")
			}
			return string(b), nil
		case c < 0x20:
			return "", d.fail("control byte in a name")
		case c != '\\':
			b = append(b, c)
			d.i++
			continue
		}
		if d.i+1 == len(d.text) {
			break
		}
		esc := d.text[d.i+1]
		d.i += 2
		switch esc {
		case '"', '\\', '/':
			b = append(b, esc)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			if d.i+4 > len(d.text) {
				return "", d.fail("short \\u escape")
			}
			r, err := strconv.ParseUint(d.text[d.i:d.i+4], 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return "", d.fail("bad \\u escape")
			}
			b = utf8.AppendRune(b, rune(r))
			d.i += 4
		default:
			return "", d.fail("bad escape")
		}
	}
	return "", d.fail("unterminated name")
}

// uint reads an unsigned decimal value: no sign, no leading zero, no
// fraction or exponent, at most math.MaxUint64.
func (d *groupDecoder) uint() (uint64, error) {
	d.space()
	start := d.i
	var v uint64
	for ; d.i < len(d.text); d.i++ {
		c := d.text[d.i]
		if c < '0' || c > '9' {
			break
		}
		if v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, d.fail("value overflows uint64")
		}
		v = v*10 + uint64(c-'0')
	}
	switch {
	case d.i == start:
		return 0, d.fail("expected an unsigned integer")
	case d.text[start] == '0' && d.i-start > 1:
		return 0, d.fail("leading zero")
	}
	return v, nil
}

// Table formats rows of cells with left-aligned, width-padded columns; the
// experiment runners use it to print figure data as aligned text.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells are simple
// identifiers and numbers, so no quoting is needed).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// F formats a float with 3 decimal places, the standard cell format for
// speedup tables.
func F(x float64) string { return fmt.Sprintf("%.3f", x) }
