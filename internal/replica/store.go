package replica

import "fmt"

// Store is the versioned value of one replica plus the update log used for
// asynchronous propagation. Version v is the state after the first v
// committed writes; the log holds the updates for a suffix of versions so a
// current replica can bring a stale one up to date by shipping only the
// missing updates ("propagates missing updates to the target node", paper
// Section 4.2). When the log has been truncated past what a target needs,
// propagation falls back to a full snapshot. The log is bounded by entries
// and by bytes: a suffix dearer to ship than the value it patches is not kept.
//
// Store does no locking; the owning Item serializes access.
type Store struct {
	value   []byte
	version uint64
	log     []Update // log[i] produced version logBase+1+i
	logBase uint64   // version before the first logged update
	logCost int      // Σ len(Data)+updateOverhead over log
	maxLog  int      // log entries retained; <=0 means unbounded
}

// updateOverhead is a logged update's cost beyond its data: the log header.
const updateOverhead = 32

// NewStore returns a store at version 0 holding the given initial value
// (which may be nil) and retaining at most maxLog update-log entries
// (<= 0 for unbounded). The value is the store's own copy; initial is only
// read. The store is returned by value, for its owner to hold inline, and
// must not be copied once in use.
func NewStore(initial []byte, maxLog int) Store {
	v := make([]byte, len(initial))
	copy(v, initial)
	return Store{value: v, maxLog: maxLog}
}

// Version returns the replica's version number.
func (s *Store) Version() uint64 { return s.version }

// Value returns a copy of the current value.
func (s *Store) Value() []byte {
	out := make([]byte, len(s.value))
	copy(out, s.value)
	return out
}

// Len returns the current value's length in bytes.
func (s *Store) Len() int { return len(s.value) }

// Apply applies one committed update, increments the version, and logs a
// copy of the update: u.Data stays the caller's. It returns the new version.
func (s *Store) Apply(u Update) uint64 {
	return s.applyOwned(u.clone())
}

// applyOwned is Apply for an update whose Data the store may keep — the
// copy a prepare made when it staged the update — so that a write's bytes
// are copied once per replica, not once to stage and again to log.
func (s *Store) applyOwned(u Update) uint64 {
	s.value = u.apply(s.value)
	s.version++
	s.log = append(s.log, u)
	s.logCost += len(u.Data) + updateOverhead
	s.trim()
	return s.version
}

// trim drops the oldest entries while the log is longer than maxLog or
// costs more than the value (UpdatesSince then sends the caller to the
// snapshot), zeroing their headers so the Data buffers are collectable. A
// short surviving window moves down in place; a long one slides and append
// reallocates only when the backing array fills, so Applies pay amortized
// O(1) per trim, not O(maxLog) (once a double-digit percent of replica CPU).
func (s *Store) trim() {
	drop := 0
	for s.maxLog > 0 && drop < len(s.log) && (len(s.log)-drop > s.maxLog || s.logCost > len(s.value)) {
		s.logCost -= len(s.log[drop].Data) + updateOverhead
		drop++
	}
	if drop == 0 {
		return
	}
	s.logBase += uint64(drop)
	if keep := len(s.log) - drop; keep <= 32 {
		copy(s.log, s.log[drop:])
		clear(s.log[keep:])
		s.log = s.log[:keep]
		return
	}
	clear(s.log[:drop])
	s.log = s.log[drop:]
}

// UpdatesSince returns the updates that advance a replica from version v to
// the current version, oldest first, and ok=true; ok=false means the log no
// longer reaches back to v and the caller must ship a snapshot instead.
func (s *Store) UpdatesSince(v uint64) ([]Update, bool) {
	if v > s.version {
		return nil, false
	}
	if v < s.logBase {
		return nil, false
	}
	out := make([]Update, 0, s.version-v)
	for i := v - s.logBase; i < uint64(len(s.log)); i++ {
		out = append(out, s.log[i].clone())
	}
	return out, true
}

// AppendUpdatesSince is UpdatesSince's allocation-free variant: it appends
// the missing updates to dst as shallow header copies sharing the log's
// Data buffers. The log's buffers are never mutated after Apply (Apply
// clones in, trim moves headers only), so sharing is safe as long as the
// consumer does not mutate Data — receivers clone on install, and the wire
// codec copies bytes out. Returns the extended slice and ok=false when the
// log no longer reaches back to v (ship a snapshot instead).
func (s *Store) AppendUpdatesSince(dst []Update, v uint64) ([]Update, bool) {
	if v > s.version || v < s.logBase {
		return dst, false
	}
	for i := v - s.logBase; i < uint64(len(s.log)); i++ {
		dst = append(dst, s.log[i])
	}
	return dst, true
}

// Snapshot returns a copy of the value and its version.
func (s *Store) Snapshot() ([]byte, uint64) {
	return s.Value(), s.version
}

// InstallUpdates replays propagated updates on top of the current version.
// from must equal the current version (the updates' predecessor state).
func (s *Store) InstallUpdates(from uint64, ups []Update) error {
	if from != s.version {
		return fmt.Errorf("replica: updates start at version %d, store at %d", from, s.version)
	}
	for _, u := range ups {
		s.Apply(u)
	}
	return nil
}

// InstallSnapshot replaces the value wholesale, resetting the log to start
// at the snapshot version.
func (s *Store) InstallSnapshot(value []byte, version uint64) {
	s.value = make([]byte, len(value))
	copy(s.value, value)
	s.version = version
	s.log = nil
	s.logBase, s.logCost = version, 0
}

// LogLen returns the number of retained log entries (for tests and
// introspection).
func (s *Store) LogLen() int { return len(s.log) }
