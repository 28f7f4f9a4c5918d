package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkParseRequest times request canonicalization on the three
// shapes serving sees: a corpus scenario by name (memoized parse and
// build), an inline scenario source (parsed and built per request), and a
// table2 request (no scenario at all).
func BenchmarkParseRequest(b *testing.B) {
	src, err := scenario.NamedSource("diurnal-baseline")
	if err != nil {
		b.Fatal(err)
	}
	// Reseed the inline source so its workload misses the corpus memo.
	inline, err := json.Marshal(map[string]any{"scenario": map[string]any{
		"source": strings.Replace(string(src), "seed 1711", "seed 1712", 1),
	}})
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(string(inline), "seed 1712") {
		b.Fatal("inline source was not reseeded")
	}
	for _, c := range []struct{ name, exp, body string }{
		{"corpus-hit", "scenario", `{"scenario":{"name":"diurnal-baseline"}}`},
		{"inline", "scenario", string(inline)},
		{"table2", "table2", ""},
	} {
		b.Run(c.name, func(b *testing.B) {
			body := []byte(c.body)
			if _, err := ParseRequest(c.exp, body, knownAll); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ParseRequest(c.exp, body, knownAll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
