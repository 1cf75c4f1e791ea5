package serve

import (
	"net/url"
	"testing"
)

// stdlibGet is what queryGet must equal: URL.Query's parse, its error
// ignored, then Values.Get.
func stdlibGet(raw, key string) string {
	v, _ := url.ParseQuery(raw)
	return v.Get(key)
}

// TestQueryGetMatchesStdlib holds the raw-query lookup to the stdlib
// on ';' pairs, valid and invalid '%' escapes, '+', repeated keys, and
// empty keys and values.
func TestQueryGetMatchesStdlib(t *testing.T) {
	for _, c := range []struct{ raw, key, want string }{
		{"links=1,2&degraded=3@0.5", "links", "1,2"},
		{"links=1,2&degraded=3@0.5", "degraded", "3@0.5"},
		{"links=1,2", "degraded", ""},
		{"", "links", ""},
		// ';' is no separator: the pair holding it is dropped whole.
		{"links=1;degraded=2", "links", ""},
		{"links=1;degraded=2", "degraded", ""},
		{"a=1;b=2&links=3", "links", "3"},
		{"links=1;x&links=2", "links", "2"},
		// Escapes in values and keys.
		{"links=1%2C2", "links", "1,2"},
		{"degraded=3%400.5", "degraded", "3@0.5"},
		{"%6Cinks=4", "links", "4"},
		{"links=%zz", "links", ""},
		{"links=%zz&links=5", "links", "5"},
		{"links=%", "links", ""},
		{"links=%4", "links", ""},
		{"li%zznks=1&links=2", "links", "2"},
		// '+' is a space in both keys and values.
		{"scheme=PCF+TF", "scheme", "PCF TF"},
		{"a+b=1", "a b", "1"},
		{"a+b=1", "a+b", ""},
		{"a%2Bb=1", "a+b", "1"},
		// Repeated keys: the first valid value wins.
		{"links=1&links=2", "links", "1"},
		{"links=&links=2", "links", ""},
		// Empty keys, values and pairs.
		{"=1&links=2", "", "1"},
		{"links", "links", ""},
		{"links=", "links", ""},
		{"&&links=7&&", "links", "7"},
		{"=", "", ""},
		{"a==b", "a", "=b"},
	} {
		if got, want := queryGet(c.raw, c.key), stdlibGet(c.raw, c.key); got != want || got != c.want {
			t.Errorf("queryGet(%q, %q) = %q, stdlib %q, table %q", c.raw, c.key, got, want, c.want)
		}
	}
}

// TestQueryGetAllocs: a lookup in a query without escapes builds
// nothing.
func TestQueryGetAllocs(t *testing.T) {
	raw := "timeout=5s&links=1,2,3&degraded=4@0.5"
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range []string{"timeout", "links", "degraded", "absent"} {
			_ = queryGet(raw, k)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per four lookups, want 0", allocs)
	}
}

func FuzzQueryGet(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"links=1,2&degraded=3@0.5", "links"},
		{"links=1;degraded=2&links=3", "links"},
		{"links=%zz&links=%41", "links"},
		{"a+b=c+d&a%20b=e", "a b"},
		{"=&=x&", ""},
		{"timeout=5s&timeout=6s", "timeout"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		if got, want := queryGet(raw, key), stdlibGet(raw, key); got != want {
			t.Fatalf("queryGet(%q, %q) = %q, stdlib %q", raw, key, got, want)
		}
	})
}
