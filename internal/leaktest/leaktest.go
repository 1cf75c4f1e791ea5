// Package leaktest is test support for goroutine lifecycles: it checks
// that the goroutines a component started have ended once its owner
// says they should have.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// limit bounds how long Gone waits for the goroutines to end.
const limit = 2 * time.Second

// Gone waits until no goroutine is running fn, a function name as a
// stack trace prints it without its package path (for example
// "telemetry.(*Store).flushLoop"), and fails the test if one still is
// after two seconds. A goroutine merely created by fn does not count.
func Gone(t testing.TB, fn string) {
	t.Helper()
	frame := fn + "("
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(limit)
	for {
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var running []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, frame) {
				running = append(running, g)
			}
		}
		if len(running) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) still in %s after %v:\n\n%s", len(running), fn, limit, strings.Join(running, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
