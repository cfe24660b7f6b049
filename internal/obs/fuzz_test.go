package obs

import "testing"

// FuzzParse drives arbitrary bytes through the exposition parser. The
// contract under fuzzing: never panic, and either reject the input with
// an error and no scrape, or accept it with a usable scrape — never a
// partial value alongside an error.
func FuzzParse(f *testing.F) {
	r := New()
	r.Counter("peer_calls_total", "peer calls by method", "peer", "b", "method", "start_mate").Add(42)
	r.Gauge("jobs_queued", "queue depth").Set(17)
	r.Gauge("esc", "help with \\ and\nnewline", "k", "a\"b\\c\nd}").Set(-1.5)
	r.Collect(func(e *Emitter) { e.Gauge("degraded", "1 when degraded", 0) })
	rendered := r.Render()
	f.Add(rendered)
	f.Add(rendered[:len(rendered)/2])
	f.Add([]byte(""))
	f.Add([]byte("# TYPE m histogram\n"))
	f.Add([]byte("m{a=\"1\" 2\n"))
	f.Add([]byte("m NaN\nn +Inf\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse returned a scrape alongside error %v", err)
			}
			return
		}
		if s == nil || s.Values == nil || s.Types == nil {
			t.Fatalf("accepted input yielded an unusable scrape: %+v", s)
		}
		for name, k := range s.Types {
			if k != KindCounter && k != KindGauge {
				t.Fatalf("family %q accepted with unsupported kind %v", name, k)
			}
		}
	})
}
