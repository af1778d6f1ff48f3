// Package checkpoint serializes complete machine state for crash
// recovery and violation bisection.
//
// The simulation kernel schedules closures and programs run as blocked
// goroutines, so machine state cannot be re-injected directly. A
// checkpoint instead records (schema version, run identity, executed
// event count k, full state image, state digest); restoring rebuilds the
// machine from its configuration and programs, replays the deterministic
// event stream to event k, and cross-validates the reconstructed state
// against the stored digest bit-exactly. The state image is therefore
// both the verification oracle and a complete, inspectable serialization
// of the machine: engine clock and queue, per-core CPU state, L1/L2/LLC
// arrays with replacement order, directory and MSHR state, NoC link
// reservations, HBM channel queues, predictor tables, the functional
// memory image, sanitizer and observability counters, and the chaos
// injector's stream positions when the run is chaotic.
//
// This package holds the one state encoder. New encodes a captured State
// once, and those bytes are the checkpoint's only representation of it:
// the digest covers exactly them, Write copies them out verbatim, and Read
// hands them back without decoding them.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dynamo/internal/check"
	"dynamo/internal/chi"
	"dynamo/internal/cpu"
	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/obs"
	"dynamo/internal/sim"
)

// SchemaVersion identifies the checkpoint layout. Bump it whenever the
// State shape or any component snapshot changes incompatibly; restores
// across versions fail with ErrIncompatible instead of verifying against
// a digest whose meaning drifted.
const SchemaVersion = 1

// Typed restore failures. Callers branch on these: an incompatible or
// corrupt checkpoint is discarded and the run restarts from event zero; a
// diverged checkpoint indicates the configuration no longer reproduces
// the recorded run (e.g. a code change) and is likewise discarded.
var (
	// ErrIncompatible marks a schema-version or run-identity mismatch.
	ErrIncompatible = errors.New("checkpoint: incompatible")
	// ErrCorrupt marks an unreadable, truncated or digest-failing file.
	ErrCorrupt = errors.New("checkpoint: corrupt")
	// ErrDiverged marks a replay that did not reproduce the stored state.
	ErrDiverged = errors.New("checkpoint: replay diverged from stored state")
)

// Unusable reports whether err means a resume checkpoint cannot be used
// (incompatible, corrupt or diverged), so the run should restart from
// event zero rather than fail.
func Unusable(err error) bool {
	return errors.Is(err, ErrDiverged) ||
		errors.Is(err, ErrIncompatible) ||
		errors.Is(err, ErrCorrupt)
}

// State is the complete serializable machine image. Every slice is in a
// canonical order (see the component Snapshot methods), so its JSON
// encoding — and therefore its digest — is deterministic.
type State struct {
	Engine sim.Snapshot    `json:"engine"`
	Cores  []cpu.Snapshot  `json:"cores"`
	RNs    []chi.RNState   `json:"rns"`
	HNs    []chi.HNState   `json:"hns"`
	NoC    noc.Snapshot    `json:"noc"`
	Mem    hbm.Snapshot    `json:"mem"`
	Data   []memory.Word   `json:"data"`
	Check  *check.Report   `json:"check,omitempty"`
	Obs    *obs.Report     `json:"obs,omitempty"`
	Policy json.RawMessage `json:"policy,omitempty"`
	// Extra holds optional component state keyed by component name: the
	// machine writes the chaos injector's stream positions under "chaos"
	// when chaos is on.
	Extra map[string]json.RawMessage `json:"extra,omitempty"`
}

// Checkpoint is one serialized machine state at a specific event index.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Identity names the run this checkpoint belongs to (the runner uses
	// the request digest); restoring under a different identity fails.
	Identity string `json:"identity,omitempty"`
	// Event is the number of executed events at capture time.
	Event uint64 `json:"event"`
	// StateDigest is the hex sha256 of exactly the State bytes.
	StateDigest string `json:"state_digest"`
	// State is the canonical encoding of the captured State, the bytes
	// New produced and the file holds. Restore never decodes it (the
	// replay captures and digests its own state), so decode it with
	// json.Unmarshal only to inspect it.
	State json.RawMessage `json:"state"`
}

// header is a Checkpoint without its state, the part Write encodes.
type header struct {
	Schema      int    `json:"schema"`
	Identity    string `json:"identity,omitempty"`
	Event       uint64 `json:"event"`
	StateDigest string `json:"state_digest"`
}

// encode returns the canonical JSON encoding of s. Go's encoding/json is
// deterministic here: struct fields encode in declaration order and every
// map key is sorted.
func encode(s *State) ([]byte, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	return raw, nil
}

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// DigestState returns the hex sha256 of the canonical encoding of s: the
// StateDigest New would stamp on a checkpoint of s.
func DigestState(s *State) (string, error) {
	raw, err := encode(s)
	if err != nil {
		return "", err
	}
	return digest(raw), nil
}

// New builds a checkpoint around a captured state: it encodes the state
// once and stamps the schema version and the digest of those bytes.
func New(identity string, event uint64, st State) (*Checkpoint, error) {
	raw, err := encode(&st)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Schema:      SchemaVersion,
		Identity:    identity,
		Event:       event,
		StateDigest: digest(raw),
		State:       raw,
	}, nil
}

// Write serializes the checkpoint as one line of JSON: the header fields,
// then the state bytes as stored. For a state New encoded, the line is
// byte-identical to json.Marshal's encoding of ck plus a newline, but
// json.Marshal would re-scan the state to compact it; Write splices it in.
func Write(w io.Writer, ck *Checkpoint) error {
	head, err := json.Marshal(header{ck.Schema, ck.Identity, ck.Event, ck.StateDigest})
	if err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	state := []byte(ck.State)
	if state == nil {
		state = []byte("null")
	}
	head = append(head[:len(head)-1], `,"state":`...)
	for _, b := range [][]byte{head, state, []byte("}\n")} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("checkpoint: write: %w", err)
		}
	}
	return nil
}

// Read parses and structurally validates a checkpoint: parse failures and
// digest mismatches return ErrCorrupt, schema drift returns
// ErrIncompatible. It decodes only the envelope, so the whole file's JSON
// syntax is checked, but it neither decodes nor re-encodes the state: the
// state's bytes must hash to StateDigest as they stand. Run-identity
// compatibility is checked separately (see Compatible) because the reader
// does not know which run it serves.
func Read(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if ck.Schema != SchemaVersion {
		return nil, fmt.Errorf("%w: schema %d, want %d", ErrIncompatible, ck.Schema, SchemaVersion)
	}
	if digest(ck.State) != ck.StateDigest {
		return nil, fmt.Errorf("%w: state digest mismatch", ErrCorrupt)
	}
	return &ck, nil
}

// Compatible reports whether the checkpoint belongs to the run named by
// identity, returning ErrIncompatible otherwise.
func (ck *Checkpoint) Compatible(identity string) error {
	if ck.Identity != identity {
		return fmt.Errorf("%w: checkpoint identity %q does not match run %q",
			ErrIncompatible, ck.Identity, identity)
	}
	return nil
}
