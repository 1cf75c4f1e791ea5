package serve

import (
	"net/url"
	"strings"
)

// queryGet returns the first value of key in the raw query string, as
// url.ParseQuery(raw) followed by Values.Get(key) does with the parse
// error ignored (URL.Query's behaviour): pairs split on '&', a pair
// holding a ';' is skipped, and so is one whose key or value is not a
// valid escape. It builds no map, and a key or value without '%' or
// '+' is compared and returned as a substring of raw.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}
