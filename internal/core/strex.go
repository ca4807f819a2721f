// Package core implements the paper's primary contribution: the STREX
// mechanisms of Section 4 — team formation (grouping same-type
// transactions by header address), the per-core thread queue, the 8-bit
// phaseID counter and victim-block monitor that together realize the
// stratified synchronization algorithm of Section 4.2, the FPTable used
// by the hybrid STREX/SLICC mechanism of Section 5.5, and the hardware
// storage-cost model of Table 4.
//
// The synchronization algorithm, restated:
//
//  1. Same-type transactions are grouped into teams; each team is placed
//     in a core's hardware thread queue; the first transaction is lead.
//  2. Each core has a phaseID counter. Every instruction block a
//     transaction touches is tagged with the current phaseID (hit or
//     miss). Whenever the lead resumes, it increments the counter.
//  3. When a victim block tagged with the *current* phaseID is evicted,
//     the running transaction is context-switched to the queue's tail.
//  4. If the lead terminates, the next thread in the queue becomes lead.
//  5. Threads run round-robin until all complete.
//  6. The core is then free for another team.
package core

// PhaseCounter is the per-core 8-bit modulo phase counter (Section 4.3
// uses 8-bit phaseID tags and an 8-bit modulo counter).
type PhaseCounter struct {
	v uint8
}

// Value returns the current phaseID.
func (p *PhaseCounter) Value() uint8 { return p.v }

// Increment advances the counter modulo 256.
func (p *PhaseCounter) Increment() { p.v++ }

// Reset zeroes the counter.
func (p *PhaseCounter) Reset() { p.v = 0 }

// ThreadID identifies a transaction within the scheduling structures.
type ThreadID int

// Team is a group of same-type transactions scheduled together on one
// core. It owns the circular FIFO thread queue of Section 4.3.
type Team struct {
	Header  uint32 // shared header-instruction block of the members
	queue   []ThreadID
	lead    ThreadID
	hasLead bool
}

// Reset empties the team for a new formation with the given header
// address, keeping its queue's storage: a core that reuses one Team
// forms every later team without allocating.
func (t *Team) Reset(header uint32) { *t = Team{Header: header, queue: t.queue[:0]} }

// Size returns the number of queued threads (including one currently
// popped for execution only if it has been pushed back).
func (t *Team) Size() int { return len(t.queue) }

// Empty reports whether no threads remain.
func (t *Team) Empty() bool { return len(t.queue) == 0 }

// Add appends a thread to the queue tail. The first thread ever added
// becomes the lead (rule 1).
func (t *Team) Add(id ThreadID) {
	if !t.hasLead {
		t.lead = id
		t.hasLead = true
	}
	t.queue = append(t.queue, id)
}

// Pop removes and returns the thread at the queue head. ok is false when
// the queue is empty.
func (t *Team) Pop() (id ThreadID, ok bool) {
	if len(t.queue) == 0 {
		return 0, false
	}
	id = t.queue[0]
	copy(t.queue, t.queue[1:])
	t.queue = t.queue[:len(t.queue)-1]
	return id, true
}

// Requeue places a context-switched thread at the queue tail (rule 3).
func (t *Team) Requeue(id ThreadID) { t.queue = append(t.queue, id) }

// Lead returns the current lead thread.
func (t *Team) Lead() (ThreadID, bool) { return t.lead, t.hasLead }

// IsLead reports whether id is the team's lead.
func (t *Team) IsLead(id ThreadID) bool { return t.hasLead && t.lead == id }

// RetireLead is called when the lead terminates: the next thread in the
// queue becomes lead (rule 4). If the queue is empty the team has no
// lead until a thread is added (which cannot happen post-formation; the
// team is then finished).
func (t *Team) RetireLead() {
	if len(t.queue) == 0 {
		t.hasLead = false
		return
	}
	t.lead = t.queue[0]
	t.hasLead = true
}

// FormationConfig sizes the team formation unit. The paper examines a
// window of 30 threads and teams of up to 10 (20 max considered).
type FormationConfig struct {
	Window   int // transactions visible to the formation unit
	TeamSize int // maximum threads per team
}

// DefaultFormation returns the paper's configuration.
func DefaultFormation() FormationConfig { return FormationConfig{Window: 30, TeamSize: 10} }

// Candidate is a pending transaction visible to the formation unit.
type Candidate struct {
	ID     ThreadID
	Header uint32
	// Arrival orders candidates; the formation unit assigns teams "in
	// the arrival order of the oldest thread in a team" (Section 4.3).
	Arrival int
}

// FormTeam implements the team formation unit: given the pending window
// (oldest first), it builds the next team to dispatch. Grouping is by
// header-instruction address, exactly like SLICC-Pp. The team is seeded
// by the oldest pending transaction; same-header transactions join up to
// the team-size limit. A stray transaction (no same-type peers) yields a
// singleton team, preserving the paper's "scheduled individually" rule.
// The members are appended to dst in arrival order, so a caller that
// keeps one buffer forms every team without allocating; an empty window
// appends nothing.
func FormTeam(dst, window []Candidate, cfg FormationConfig) []Candidate {
	if len(window) == 0 {
		return dst
	}
	if cfg.TeamSize <= 0 {
		cfg.TeamSize = 1
	}
	n := len(window)
	if cfg.Window > 0 && n > cfg.Window {
		n = cfg.Window
	}
	seed := window[0]
	limit := len(dst) + cfg.TeamSize
	dst = append(dst, seed)
	for _, c := range window[1:n] {
		if len(dst) >= limit {
			break
		}
		if c.Header == seed.Header {
			dst = append(dst, c)
		}
	}
	return dst
}
