package scenario

import (
	"bytes"
	"embed"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/workload"
)

// The named corpus: full experiment descriptions that ship with the
// simulator. The canonical copies live in corpus/*.scenario and are
// embedded into the binary, so the serving layer can accept a scenario
// by name without touching the filesystem (no path-traversal surface)
// and the CLI resolves names before falling back to file paths. The
// user-facing copies under examples/scenarios/ are pinned byte-for-byte
// to these by a test — edit both together. Every corpus entry is also
// pinned end-to-end through the serve layer's golden machinery, which is
// what makes the corpus a regression suite.
//
// The corpus is immutable, so each entry is parsed and its trace built at
// most once per process (corpusEntry). Named hands out clones of the
// memoized Spec; the trace is shared read-only through Spec.Build, keyed
// on the canonical workload text so an edited clone can never see a
// stale trace. The memo is bounded by the embedded corpus itself.

//go:embed corpus/*.scenario
var corpusFS embed.FS

const corpusDir = "corpus"

// Names lists the embedded scenario names, sorted.
func Names() []string {
	entries, err := corpusFS.ReadDir(corpusDir)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".scenario"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// IsNamed reports whether name resolves to an embedded scenario.
func IsNamed(name string) bool {
	_, err := corpusFS.ReadFile(corpusDir + "/" + name + ".scenario")
	return err == nil
}

// NamedSource returns the raw text of an embedded scenario.
func NamedSource(name string) ([]byte, error) {
	b, err := corpusFS.ReadFile(corpusDir + "/" + name + ".scenario")
	if err != nil {
		return nil, fmt.Errorf("scenario: unknown scenario %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Named returns an embedded scenario as a Spec. Each call returns a fresh
// clone of the memoized parse, so callers may edit it freely.
func Named(name string) (*Spec, error) {
	e, ok := corpus()[name]
	if !ok {
		_, err := NamedSource(name)
		return nil, err
	}
	e.once.Do(func() { e.load(name) })
	if e.err != nil {
		return nil, e.err
	}
	return e.spec.clone(), nil
}

// corpusEntry is one embedded scenario, parsed at most once per process.
type corpusEntry struct {
	once sync.Once
	spec *Spec
	err  error
}

// corpus maps every embedded scenario name to its (lazily loaded) entry.
var corpus = sync.OnceValue(func() map[string]*corpusEntry {
	m := make(map[string]*corpusEntry)
	for _, n := range Names() {
		m[n] = &corpusEntry{}
	}
	return m
})

// corpusTraces holds the trace of every loaded corpus entry, keyed by its
// canonical workload text (genKey).
var corpusTraces sync.Map

// load parses the entry's source once, keeping the Spec and publishing the
// trace its validation built.
func (e *corpusEntry) load(name string) {
	b, err := NamedSource(name)
	if err != nil {
		e.err = err
		return
	}
	spec, err := read(bytes.NewReader(b))
	var tr *workload.Trace
	if err == nil {
		tr, err = spec.Build()
	}
	if err != nil {
		e.err = fmt.Errorf("scenario: embedded scenario %q: %w", name, err)
		return
	}
	corpusTraces.LoadOrStore(genKey(spec.Gen), tr)
	e.spec = spec
}

// genKey is the memo key of a workload: its canonical text.
func genKey(g workload.GenSpec) string {
	var b strings.Builder
	writeGen(&b, g)
	return b.String()
}

// buildGen builds g's trace, or returns the memoized trace of a loaded
// corpus entry whose workload renders identically.
func buildGen(g workload.GenSpec) (*workload.Trace, error) {
	if tr, ok := corpusTraces.Load(genKey(g)); ok {
		return tr.(*workload.Trace), nil
	}
	return g.Build()
}

// clone deep-copies the Spec's slices; the fault schedule is immutable
// and stays shared.
func (s *Spec) clone() *Spec {
	c := *s
	c.Gen.Samples = slices.Clone(s.Gen.Samples)
	c.Gen.Components = slices.Clone(s.Gen.Components)
	c.Mix = slices.Clone(s.Mix)
	return &c
}
