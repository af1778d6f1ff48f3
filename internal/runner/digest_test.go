package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// referenceDigest is the digest's definition: the SHA-256 of json.Marshal
// of the normalized request's metadata map. Digest must write exactly
// these bytes without building the map.
func referenceDigest(q Request) string {
	canon, err := json.Marshal(q.normalize().meta())
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// plainRequest is the quick suite's typical request.
var plainRequest = Request{Workload: "histogram", Policy: "dynamo-reuse-pn", Threads: 8, Seed: 1, Scale: 0.05}

// TestDigestPinned holds digests recorded before Digest stopped going
// through a map and json.Marshal. Every persisted cache entry, checkpoint
// and quarantine marker is named by one, so a change here orphans every
// user's cache. Together the requests carry every metadata key.
func TestDigestPinned(t *testing.T) {
	cases := []struct {
		name string
		q    Request
		want string
	}{
		{"quick-plain", plainRequest,
			"ac4e30634d5ac8dde472c64d7855ce558e2e377d56796823dc279134c4912ec0"},
		{"counter", Request{Policy: "all-far", Threads: 8, Seed: 1, Scale: 0.05,
			Counter: &CounterSpec{Ops: 200, NoReturn: true, Cells: 4}},
			"aba1b0f701f80cd4872e26ffcebae2dec1610e874bdee7b88ff1b01339ff8a18"},
		{"dse", Request{Workload: "bfs", DSE: "N F N F N", Threads: 8, Seed: 1, Scale: 0.05},
			"e62c80491f85fbb0fa57e2f82429aaee370b0bf8926f930afcd8b1b426bf8516"},
		{"check-chaos", Request{Workload: "tc", Policy: "unique-near", Threads: 4, Scale: 0.1,
			Check: true, ChaosSeed: 3, ChaosLevel: 2},
			"ac94624c5885b73115b5e9048371897aee5ccbc55bfc545b0984ba6634fe7cdb"},
		{"observe-profile", Request{Workload: "spmv", Policy: "dynamo-reuse-pn", Threads: 8, Seed: 2,
			Scale: 0.05, Observe: true, ProfileTopK: 8},
			"3739ad595a417fd15afff14b23619523fec6e4690c4f2dffbb00a9c32b42639f"},
		{"variant", Request{Workload: "histogram", Policy: "all-near", Threads: 8, Seed: 1, Scale: 0.05,
			Variant: "amt-e64-w4-c3"},
			"984bed1041335afe5396a35d6dd9573c3f8cadec04f4d57e2bdef83c08c7290a"},
		{"escaped", Request{Workload: "h<i>st&\"o\"gramé", Policy: "all-near", Input: "in\\put\x01<&>é",
			Threads: 16, Seed: 7, Scale: 1.5},
			"d9784036a41f27a7444c9cc734a688b0d0af6fe1b53483840a8b8401c8558799"},
	}
	keys := map[string]bool{}
	for _, c := range cases {
		if got := c.q.Digest(); got != c.want {
			t.Errorf("%s: Digest = %s, want %s", c.name, got, c.want)
		}
		for k := range c.q.normalize().meta() {
			keys[k] = true
		}
	}
	for _, k := range metaKeys {
		if !keys[k] {
			t.Errorf("no pinned request carries metadata key %q", k)
		}
	}
}

// randomText draws strings mixing plain ASCII with every class of byte
// json.Marshal escapes or rewrites: quotes, backslashes, HTML-escaped
// characters, control bytes, U+2028, accented letters and invalid UTF-8.
func randomText(rng *rand.Rand) string {
	pieces := []string{"", "a", "tc", "dynamo-reuse-pn", "0.5", " ", "\"", "\\", "<", ">", "&",
		"\x00", "\x01", "\n", "\t", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xc3", "日本"}
	var s string
	for n := rng.Intn(5); n > 0; n-- {
		s += pieces[rng.Intn(len(pieces))]
	}
	return s
}

func randomRequest(rng *rand.Rand) Request {
	pick := func(vals ...int64) int64 { return vals[rng.Intn(len(vals))] }
	q := Request{
		Workload:    randomText(rng),
		Policy:      randomText(rng),
		Input:       randomText(rng),
		Variant:     randomText(rng),
		Threads:     int(pick(0, 1, 8, 64, -3, math.MaxInt32)),
		Seed:        pick(0, 1, 42, -7, math.MaxInt64, math.MinInt64),
		Scale:       []float64{0, 0.05, 1, 1e-9, 3.5e21, -2, math.Inf(1), math.NaN()}[rng.Intn(8)],
		Observe:     rng.Intn(2) == 0,
		ProfileTopK: int(pick(0, 4, -1, 100000)),
		Check:       rng.Intn(2) == 0,
		ChaosSeed:   pick(0, 3, -9, math.MaxInt64),
		ChaosLevel:  int(pick(0, 1, 2, -1)),
	}
	if rng.Intn(3) == 0 {
		q.DSE = randomText(rng)
	}
	if rng.Intn(3) == 0 {
		q.Counter = &CounterSpec{Ops: int(pick(0, 200, -5)), NoReturn: rng.Intn(2) == 0, Cells: int(pick(0, 4, 1<<40))}
	}
	return q
}

// TestDigestMatchesJSONReference: over random requests covering every
// metadata key and every class of escaped byte, Digest hashes exactly the
// bytes json.Marshal writes for meta(), and so does metaDigest for the
// meta map itself; metaMatches accepts the request's own metadata and
// nothing that differs from it, and metaDigest names no meta with a key
// outside metaKeys.
func TestDigestMatchesJSONReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		q := randomRequest(rng)
		want := referenceDigest(q)
		if got := q.Digest(); got != want {
			t.Fatalf("request %#v: Digest = %s, reference %s", q, got, want)
		}
		n := q.normalize()
		m := n.meta()
		if got := metaDigest(m); got != want {
			t.Fatalf("meta %v: metaDigest = %s, reference %s", m, got, want)
		}
		if !n.metaMatches(m) {
			t.Fatalf("request %#v does not match its own meta %v", q, m)
		}
		m["extra"] = ""
		if n.metaMatches(m) {
			t.Fatalf("request %#v matches meta with an extra key", q)
		}
		if got := metaDigest(m); got != "" {
			t.Fatalf("meta %v with an extra key has digest %s", m, got)
		}
		delete(m, "extra")
		m["schema"] += "0"
		if n.metaMatches(m) {
			t.Fatalf("request %#v matches meta with a changed value", q)
		}
	}
}

func TestDigestAllocs(t *testing.T) {
	var d string
	allocs := testing.AllocsPerRun(100, func() { d = plainRequest.Digest() })
	if allocs > 4 {
		t.Fatalf("Digest of a plain request made %.0f allocations, want at most 4", allocs)
	}
	if d != referenceDigest(plainRequest) {
		t.Fatal("Digest disagrees with the reference")
	}
}

var digestSink string

func BenchmarkDigest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		digestSink = plainRequest.Digest()
	}
}
