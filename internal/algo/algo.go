// Package algo is the algorithm registry: the seam that makes the
// rounds/transport/sim/runtime/check/service stack generic over the
// agreement problem it executes instead of hardwired to k-set
// agreement. A registered Algorithm bundles everything a layer needs to
// run one family end to end — a rounds.Algorithm factory, the wire
// Codec its messages travel under, its automatic round bound, and its
// whole-run correctness oracles — so executors, the differential
// harness, and ksetd resolve behavior by name instead of type-asserting
// k-set message types.
//
// Two families are built in: "kset" (Algorithm 1 of the source paper,
// the default everywhere a name is omitted) and "approx" (approximate
// agreement on path/cycle graphs, internal/approx). Registering a third
// is additive: implement rounds.Algorithm + rounds.Decider, a Codec,
// and the oracle hook, then Register it — see DESIGN.md §9.
//
// Register validates every entry up front: structural checks plus a
// smoke run of the factory and a codec round-trip on a real message
// (selfTest), so a broken registration — nil sends, codecs that do not
// round-trip, factories that reject their own probe — fails loudly at
// registration time, not rounds deep inside a live run.
package algo

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/trace"
)

// Codec translates between an algorithm's in-memory messages and the
// byte payloads a transport carries. Codec values are shared by every
// worker of a run and must be stateless; decode state lives in the
// Decoder the runtime obtains from NewDecoder for each process. Only
// links that leave a mesh node are encoded: a receiver on the sender's
// own node is handed the Send value itself (rounds.Algorithm.Send states
// how long it must stay intact), so a codec must be a faithful copy —
// decode(encode(m)) and m drive Transition identically — which the
// registration round-trip and the runtime's by-value/by-bytes
// differential hold it to.
type Codec interface {
	// Encode appends msg's wire form to dst and returns the extended
	// buffer (the runtime reuses dst across rounds). msg is whatever the
	// algorithm's Send returns; encoding a foreign message type is an
	// error, surfaced by Register's self-test before any run starts.
	Encode(dst []byte, msg any) ([]byte, error)
	// NewDecoder returns a decoder for one process on an n-process
	// transport; only one goroutine at a time uses it.
	NewDecoder(n int) Decoder
}

// Decoder decodes one sender's payloads. Implementations decode into
// per-sender scratch: the returned message is valid only until the next
// Decode call for the same sender, mirroring the round model's
// "messages are valid for the duration of the Transition call"
// contract. That is what keeps the steady state allocation-free —
// decoding reuses the scratch message (and any storage hanging off it,
// e.g. k-set's approximation graphs) instead of allocating per message
// per round; AllocsPerRun tests pin this for every built-in codec.
type Decoder interface {
	Decode(from int, payload []byte) (any, error)
}

// Run bundles the run-level inputs an algorithm family needs: the
// instance size, the proposal vector, the family's own options, and
// what is known about the adversary's stabilization behavior (the
// automatic round bounds key off it).
type Run struct {
	// Algorithm is the registered family name (filled by sim.Resolve).
	Algorithm string
	// N is the number of processes.
	N int
	// Proposals are the initial values; length N.
	Proposals []int64
	// Params carries the family's options (core.Options for kset,
	// approx.Options for approx); nil means defaults. Prepare replaces
	// it with the normalized value.
	Params any
	// Stab is the adversary's stabilization round when Stabilizes.
	Stab int
	// Stabilizes reports whether the adversary implements
	// rounds.Stabilizer.
	Stabilizes bool
	// MaxRounds is the resolved round bound of the run (filled by
	// sim.Resolve after Prepare); oracles quote it in violations.
	MaxRounds int
}

// Facts are the measured, algorithm-independent properties of one
// finished run, handed to an Algorithm's Check oracles.
type Facts struct {
	// Outcome is the decision summary.
	Outcome *trace.Outcome
	// Skeleton is the stable skeleton G^∩∞ of the realized schedule.
	Skeleton *graph.Digraph
	// RootComps is the number of root components of the skeleton.
	RootComps int
	// MinK is the smallest certified k with Psrcs(k) for the skeleton.
	MinK int
}

// Violation is one whole-run oracle failure.
type Violation struct {
	// Oracle names the violated invariant ("validity", "k-bound",
	// "agreement", "termination").
	Oracle string
	// Detail is a human-readable account of the failure.
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Oracle, v.Detail) }

// Algorithm is one registered family. All function fields must be safe
// for concurrent use; Prepare mutates only its argument.
type Algorithm struct {
	// Name registers the family ([a-z0-9_-]+).
	Name string
	// Codec carries the family's messages across transports.
	Codec Codec
	// Prepare normalizes run.Params in place — filling defaults from N,
	// Proposals, and the stabilization data — and validates the run.
	// It must be idempotent: preparing an already-normalized run is a
	// no-op (the differential harness resolves once and replays).
	Prepare func(run *Run) error
	// NewFactory builds the per-process constructor for a prepared run.
	NewFactory func(run Run) (func(self int) rounds.Algorithm, error)
	// MaxRounds returns the automatic round bound for a prepared run.
	MaxRounds func(run Run) int
	// Check evaluates the family's whole-run oracles; nil checks
	// nothing. Oracles must be sound: a returned Violation is a bug in
	// the algorithm, the executor, or the transport.
	Check func(run Run, f Facts) []Violation
	// Probe returns a minimal valid run for the registration self-test.
	Probe func() Run
	// FuzzTarget names the codec's fuzz target as "pkgdir:FuzzName"
	// (e.g. "internal/wire:FuzzDecode"); cmd/docscheck verifies it
	// exists so every registered codec stays wired into the fuzz lanes.
	FuzzTarget string
}

// Default is the algorithm an empty name resolves to.
const Default = KSet

var (
	regMu    sync.RWMutex
	registry = map[string]*Algorithm{}
)

var nameRE = regexp.MustCompile(`^[a-z0-9_-]+$`)

// Register validates and adds a family to the registry. It fails on
// structural problems (bad name, missing hooks, duplicate) and on a
// failed self-test — a probe run through the factory, one Send, a codec
// round-trip, a Transition on the decoded round, and the Send lifetime
// rule checked on the round-1 values.
func Register(a *Algorithm) error {
	if a == nil {
		return fmt.Errorf("algo: Register(nil)")
	}
	if !nameRE.MatchString(a.Name) {
		return fmt.Errorf("algo: invalid algorithm name %q", a.Name)
	}
	switch {
	case a.Codec == nil:
		return fmt.Errorf("algo: %s: nil Codec", a.Name)
	case a.Prepare == nil:
		return fmt.Errorf("algo: %s: nil Prepare", a.Name)
	case a.NewFactory == nil:
		return fmt.Errorf("algo: %s: nil NewFactory", a.Name)
	case a.MaxRounds == nil:
		return fmt.Errorf("algo: %s: nil MaxRounds", a.Name)
	case a.Probe == nil:
		return fmt.Errorf("algo: %s: nil Probe", a.Name)
	case a.FuzzTarget == "":
		return fmt.Errorf("algo: %s: no codec fuzz target declared", a.Name)
	}
	if err := selfTest(a); err != nil {
		return fmt.Errorf("algo: %s failed the registration self-test: %w", a.Name, err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[a.Name]; dup {
		return fmt.Errorf("algo: %s registered twice", a.Name)
	}
	registry[a.Name] = a
	return nil
}

// mustRegister is Register, panicking on error (built-in init paths).
func mustRegister(a *Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// Unregister removes a family — the hook registry seam tests use to
// register deliberately-broken fakes without leaking them into other
// tests. Built-ins are never unregistered by production code.
func Unregister(name string) {
	regMu.Lock()
	delete(registry, name)
	regMu.Unlock()
}

// Lookup resolves a family by name; "" resolves to Default. Unknown
// names fail with the valid-name list (the 400 body ksetd serves).
func Lookup(name string) (*Algorithm, error) {
	if name == "" {
		name = Default
	}
	regMu.RLock()
	a := registry[name]
	regMu.RUnlock()
	if a == nil {
		return nil, fmt.Errorf("algo: unknown algorithm %q (registered: %v)", name, Names())
	}
	return a, nil
}

// MustLookup resolves a family that is known to be registered.
func MustLookup(name string) *Algorithm {
	a, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names returns the registered family names, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// selfTest smoke-runs a registration: probe run through Prepare and
// NewFactory, each process Inits and Sends, the codec round-trips the
// message byte-identically, Transition accepts the decoded round, and
// the process is a rounds.Decider (what trace.Collect reads outcomes
// through). It then holds every process to the lifetime rule of
// rounds.Algorithm.Send: the round-1 value must still encode to the same
// bytes after the sender's own Transition(1) and Send(2), because a
// co-located receiver may be reading it until then.
// A panic anywhere (nil Send dereferenced by the codec, a Transition
// type assertion on a mismatched decode) is converted into the error.
func selfTest(a *Algorithm) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	run := a.Probe()
	run.Algorithm = a.Name
	if err := a.Prepare(&run); err != nil {
		return fmt.Errorf("Prepare rejected the probe run: %w", err)
	}
	if b := a.MaxRounds(run); b < 1 {
		return fmt.Errorf("MaxRounds returned %d for the probe run", b)
	}
	factory, err := a.NewFactory(run)
	if err != nil {
		return fmt.Errorf("NewFactory rejected the probe run: %w", err)
	}
	if factory == nil {
		return fmt.Errorf("NewFactory returned a nil factory")
	}
	dec := a.Codec.NewDecoder(run.N)
	if dec == nil {
		return fmt.Errorf("NewDecoder returned nil")
	}
	procs := make([]rounds.Algorithm, run.N)
	sent, recv := make([]any, run.N), make([]any, run.N)
	encoded := make([][]byte, run.N)
	for self := range procs {
		p := factory(self)
		if p == nil {
			return fmt.Errorf("factory returned a nil process for p%d", self+1)
		}
		if _, ok := p.(rounds.Decider); !ok {
			return fmt.Errorf("p%d (%T) is not a rounds.Decider", self+1, p)
		}
		p.Init(self, run.N)
		msg := p.Send(1)
		if msg == nil {
			return fmt.Errorf("p%d Send(1) returned nil", self+1)
		}
		enc, err := a.Codec.Encode(nil, msg)
		if err != nil {
			return fmt.Errorf("codec cannot encode p%d's own message: %w", self+1, err)
		}
		decoded, err := dec.Decode(self, enc)
		if err != nil {
			return fmt.Errorf("codec cannot decode p%d's own message: %w", self+1, err)
		}
		re, err := a.Codec.Encode(nil, decoded)
		if err != nil {
			return fmt.Errorf("codec cannot re-encode p%d's decoded message: %w", self+1, err)
		}
		if !bytes.Equal(enc, re) {
			return fmt.Errorf("codec round-trip mismatch for p%d: %d bytes became %d", self+1, len(enc), len(re))
		}
		procs[self], sent[self], recv[self], encoded[self] = p, msg, decoded, enc
	}
	// One full round, so that the transitions have something to change.
	for self, p := range procs {
		p.Transition(1, recv)
		p.Send(2)
		re, err := a.Codec.Encode(nil, sent[self])
		if err != nil || !bytes.Equal(encoded[self], re) {
			return fmt.Errorf("p%d's Send(1) value changed under its own Transition(1) and Send(2): Send must keep a result intact until the sender's Transition of the next round begins", self+1)
		}
	}
	return nil
}
