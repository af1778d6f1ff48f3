package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomName draws names mixing text json.Marshal writes raw with every
// class of character it escapes: quotes, backslashes, HTML-escaped
// characters, control bytes and U+2028.
func randomName(rng *rand.Rand) string {
	pieces := []string{"rn", ".", "l1", "hits", "-", "\"", "\\", "<", ">", "&", "/",
		"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f", "é", "\u2028", "\u2029", "日本"}
	var s string
	for n := rng.Intn(4); n > 0; n-- {
		s += pieces[rng.Intn(len(pieces))]
	}
	return s
}

func randomValue(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return []uint64{0, 1, 9, 10, math.MaxUint64 / 10, math.MaxUint64 - 1, math.MaxUint64}[rng.Intn(7)]
	case 1:
		return rng.Uint64()
	}
	return uint64(rng.Intn(100000))
}

// sortedCounters returns g's counters in name order, the order an
// encoded group keeps.
func sortedCounters(g *Group) []Counter {
	cs := append([]Counter(nil), g.counters...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return cs
}

// TestGroupRoundTripProperty: a random group, encoded compactly or
// re-indented in any JSON whitespace, decodes to the same counters and
// re-encodes byte-identically.
func TestGroupRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g := NewGroup()
		for n := rng.Intn(30); n > 0; n-- {
			g.Add(randomName(rng), randomValue(rng))
		}
		enc, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var indented, spaced bytes.Buffer
		if err := json.Indent(&indented, enc, "      ", "  "); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&spaced, enc, " \r", "\t "); err != nil {
			t.Fatal(err)
		}
		for _, form := range [][]byte{enc, indented.Bytes(), spaced.Bytes()} {
			var got Group
			if err := json.Unmarshal(form, &got); err != nil {
				t.Fatalf("decoding %q: %v", form, err)
			}
			if want := sortedCounters(g); len(want) > 0 || len(got.counters) > 0 {
				if !reflect.DeepEqual(got.counters, want) {
					t.Fatalf("decoding %q gave %v, want %v", form, got.counters, want)
				}
			}
			again, err := json.Marshal(&got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("re-encoded %s, want %s", again, enc)
			}
		}
	}
}

// groupRejects lists inputs MarshalJSON never writes; each must fail to
// decode.
var groupRejects = []struct{ name, in string }{
	{"negative", `{"a":-1}`},
	{"fraction", `{"a":1.5}`},
	{"exponent", `{"a":1e3}`},
	{"upper exponent", `{"a":1E3}`},
	{"string value", `{"a":"1"}`},
	{"bool value", `{"a":true}`},
	{"null value", `{"a":null}`},
	{"out of order", `{"b":1,"a":2}`},
	{"duplicate", `{"a":1,"a":2}`},
	{"overflow", `{"a":18446744073709551616}`},
	{"leading zero", `{"a":01}`},
	{"truncated value", `{"a":1`},
	{"truncated colon", `{"a":`},
	{"truncated name", `{"a`},
	{"truncated escape", `{"a\`},
	{"truncated unicode", `{"\u00`},
	{"open brace", `{`},
	{"empty", ``},
	{"whitespace", " \n"},
	{"trailing comma", `{"a":1,}`},
	{"leading comma", `{,"a":1}`},
	{"missing comma", `{"a":1 "b":2}`},
	{"trailing data", `{"a":1}x`},
	{"two objects", `{}{}`},
	{"array", `[]`},
	{"null", `null`},
	{"bare name", `{a:1}`},
	{"bad escape", `{"a\q":1}`},
	{"surrogate", `{"\ud800":1}`},
	{"control byte", "{\"a\x01\":1}"},
	{"invalid UTF-8", "{\"\xff\":1}"},
	{"escaped invalid UTF-8", "{\"\\n\xff\":1}"},
}

func TestGroupUnmarshalJSONRejects(t *testing.T) {
	for _, c := range groupRejects {
		var g Group
		if err := g.UnmarshalJSON([]byte(c.in)); err == nil {
			t.Errorf("%s: %q decoded to %v, want an error", c.name, c.in, g.counters)
		}
		// Through encoding/json, as a cache entry's Detail is decoded: a
		// JSON null leaves the pointer nil without reaching the decoder.
		if !json.Valid([]byte(c.in)) || c.in == "null" {
			continue
		}
		var doc struct {
			Detail *Group `json:"detail"`
		}
		if err := json.Unmarshal([]byte(`{"detail":`+c.in+`}`), &doc); err == nil {
			t.Errorf("%s: a document holding %q decoded", c.name, c.in)
		}
	}
}

// FuzzGroupUnmarshalJSON: the decoder never panics, and whatever it
// accepts is a JSON object encoding/json decodes to the same counters, in
// strictly ascending name order, which re-encode to a group that decodes
// back to itself.
func FuzzGroupUnmarshalJSON(f *testing.F) {
	for _, c := range groupRejects {
		f.Add([]byte(c.in))
	}
	for _, s := range []string{`{}`, ` { } `, `{"a":0}`, `{"a":1,"b":18446744073709551615}`,
		"{\n  \"hn.atomics\": 4,\n  \"rn.loads\": 9254\n}", `{"\u003c\u0026\"\\\/\b\f\n\r\t":7}`,
		`{"é\u2028":3}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Group
		if err := g.UnmarshalJSON(data); err != nil {
			return
		}
		var ref map[string]uint64
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", data, err)
		}
		if len(ref) != len(g.counters) {
			t.Fatalf("accepted %q as %d counters, encoding/json sees %d", data, len(g.counters), len(ref))
		}
		for i, c := range g.counters {
			if i > 0 && c.Name <= g.counters[i-1].Name {
				t.Fatalf("accepted %q with names out of order", data)
			}
			if v, ok := ref[c.Name]; !ok || v != c.Value {
				t.Fatalf("accepted %q as %q=%d, encoding/json reads %d", data, c.Name, c.Value, v)
			}
		}
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Group
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoding %q gave %s, which does not decode: %v", data, enc, err)
		}
		if fmt.Sprint(back.counters) != fmt.Sprint(g.counters) {
			t.Fatalf("re-encoding %q decoded to %v, want %v", data, back.counters, g.counters)
		}
	})
}

var groupSink Group

// BenchmarkGroupUnmarshalJSON decodes a run's Detail group of 23 counters
// as a cache entry holds it: indented over lines.
func BenchmarkGroupUnmarshalJSON(b *testing.B) {
	g := NewGroup()
	for i, name := range []string{"rn.loads", "rn.stores", "rn.amos", "rn.l1.hits", "rn.l1.misses",
		"rn.l2.hits", "rn.l2.misses", "rn.snoops", "rn.invalidations", "rn.writebacks",
		"hn.readshared", "hn.readunique", "hn.writebacks", "hn.atomics", "hn.llc.hits",
		"hn.llc.misses", "hn.amobuf.hits", "hn.snoops.sent", "noc.messages", "noc.flits",
		"noc.flithops", "mem.reads", "mem.writes"} {
		g.Add(name, uint64(i*7919))
	}
	enc, err := json.Marshal(g)
	if err != nil {
		b.Fatal(err)
	}
	var data bytes.Buffer
	if err := json.Indent(&data, enc, "    ", "  "); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(data.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := groupSink.UnmarshalJSON(data.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}
