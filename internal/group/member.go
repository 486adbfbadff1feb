package group

import (
	"fmt"
	"math/rand"
	"sync"

	"ppgnn/internal/core"
	"ppgnn/internal/dummy"
	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
)

// Cache bounds protecting a long-lived member from a hostile or
// crash-looping coordinator that opens sessions (or invents rounds)
// without end. A protocol-conformant session needs at most n − t + 1
// contribution rounds plus MaxS decryption rounds and a handful of
// distinct set sizes, so honest traffic never comes near these caps.
const (
	// DefaultMaxSessions is the number of concurrently cached sessions
	// when Member.MaxSessions is zero; least-recently-used sessions are
	// evicted beyond it.
	DefaultMaxSessions = 16
	// maxSessionReplies caps cached replies within one session; requests
	// for further rounds are rejected with a FrameError.
	maxSessionReplies = 128
	// maxSessionSizes caps distinct dummy-set sizes within one session.
	// Rejecting (rather than evicting) beyond the cap preserves the
	// idempotency guarantee: an evicted multiset would be regenerated
	// differently, making an honest member look equivocating.
	maxSessionSizes = 32
)

// Member is the member-side protocol logic: it answers ContribRequests
// with d-anonymous location sets and, when it holds a key share,
// PartialRequests with decryption shares. It implements Handler and can
// sit behind a ProcLink (in-process) or ServeConn (TCP).
//
// Replies are idempotent: a repeated request for the same (session,
// round, slot) returns byte-identical bytes, so a coordinator retry after
// a lost reply cannot make an honest member look equivocating.
//
// Dummy locations are cached per session: across re-partition rounds the
// member re-sends the same dummy multiset with only the real location
// moved to the newly requested position. Fresh dummies every round would
// recreate the multi-query intersection attack inside a single session —
// the real location would be the only point recurring across rounds (see
// Group.CacheSets for the cross-query analogue).
//
// All per-session state is bounded: at most MaxSessions sessions are
// tracked (LRU-evicted), each holding at most maxSessionReplies replies
// and maxSessionSizes dummy multisets, so no coordinator can grow a
// member's memory without bound.
type Member struct {
	Loc geo.Point
	Gen dummy.Generator
	Rng *rand.Rand

	// TK and Share are set in threshold mode.
	TK    *paillier.ThresholdKey
	Share *paillier.KeyShare

	// MaxSessions caps concurrently cached sessions (0 =
	// DefaultMaxSessions).
	MaxSessions int

	mu       sync.Mutex
	sessions map[uint64]*memberSession
	order    []uint64 // session LRU order, oldest first
}

// memberSession is one session's cached state: the dummy multisets that
// keep contributions consistent across re-partition rounds, and the
// replies that keep retries idempotent.
type memberSession struct {
	dummies map[int][]geo.Point // set size → dummy multiset
	replies map[memberReplyKey][]byte
}

type memberReplyKey struct {
	round int
	kind  byte
}

// NewMember returns a member at loc drawing dummies with gen (uniform
// when nil) and randomness from rng (dummy.NewRand, keyed from OS
// entropy, when nil).
func NewMember(loc geo.Point, gen dummy.Generator, rng *rand.Rand) *Member {
	if gen == nil {
		gen = dummy.Uniform{}
	}
	if rng == nil {
		rng = dummy.NewRand()
	}
	return &Member{
		Loc: loc, Gen: gen, Rng: rng,
		sessions: make(map[uint64]*memberSession),
	}
}

// session returns id's cached state, creating it (and LRU-evicting the
// oldest session beyond the cap) as needed. Callers hold m.mu.
func (m *Member) session(id uint64) *memberSession {
	if ss, ok := m.sessions[id]; ok {
		// Move id to the most-recently-used end.
		for i, v := range m.order {
			if v == id {
				m.order = append(append(m.order[:i:i], m.order[i+1:]...), id)
				break
			}
		}
		return ss
	}
	max := m.MaxSessions
	if max <= 0 {
		max = DefaultMaxSessions
	}
	for len(m.sessions) >= max {
		delete(m.sessions, m.order[0])
		m.order = m.order[1:]
	}
	ss := &memberSession{
		dummies: make(map[int][]geo.Point),
		replies: make(map[memberReplyKey][]byte),
	}
	m.sessions[id] = ss
	m.order = append(m.order, id)
	return ss
}

// reply caches b for (round, kind), enforcing the per-session bound.
func (ss *memberSession) reply(round int, kind byte, b []byte) (byte, []byte, error) {
	if len(ss.replies) >= maxSessionReplies {
		return core.FrameError, []byte("group: session round budget exhausted"), nil
	}
	ss.replies[memberReplyKey{round: round, kind: kind}] = b
	return kind, b, nil
}

// Handle implements Handler.
func (m *Member) Handle(msgType byte, payload []byte) (byte, []byte, error) {
	switch msgType {
	case core.FrameContribReq:
		return m.contribute(payload)
	case core.FramePartialReq:
		return m.partial(payload)
	default:
		return core.FrameError, []byte(fmt.Sprintf("group: unexpected frame type %d", msgType)), nil
	}
}

func (m *Member) contribute(payload []byte) (byte, []byte, error) {
	req, err := core.UnmarshalContribRequest(payload)
	if err != nil {
		return core.FrameError, []byte(err.Error()), nil
	}
	if !req.Space.Contains(m.Loc) {
		return core.FrameError, []byte("group: member location outside the service space"), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := m.session(req.Session)
	if b, ok := ss.replies[memberReplyKey{round: req.Round, kind: core.FrameContrib}]; ok {
		return core.FrameContrib, b, nil
	}
	// One dummy multiset per (session, set size); the real location slots
	// into the requested position.
	dums, ok := ss.dummies[req.SetSize]
	if !ok {
		if len(ss.dummies) >= maxSessionSizes {
			return core.FrameError, []byte("group: session set-size budget exhausted"), nil
		}
		set := m.Gen.LocationSet(m.Rng, m.Loc, req.SetSize, 0, req.Space)
		dums = set[1:]
		ss.dummies[req.SetSize] = dums
	}
	set := make([]geo.Point, 0, req.SetSize)
	set = append(set, dums[:req.Pos]...)
	set = append(set, m.Loc)
	set = append(set, dums[req.Pos:]...)
	msg := &core.ContributionMsg{Session: req.Session, Round: req.Round, Slot: req.Slot, Set: set}
	return ss.reply(req.Round, core.FrameContrib, msg.Marshal())
}

func (m *Member) partial(payload []byte) (byte, []byte, error) {
	req, err := core.UnmarshalPartialRequest(payload)
	if err != nil {
		return core.FrameError, []byte(err.Error()), nil
	}
	if m.TK == nil || m.Share == nil {
		return core.FrameError, []byte("group: member holds no key share"), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := m.session(req.Session)
	if b, ok := ss.replies[memberReplyKey{round: req.Round, kind: core.FramePartial}]; ok {
		return core.FramePartial, b, nil
	}
	shares, err := core.PartialShares(m.TK, m.Share, req.Degree, req.Cts)
	if err != nil {
		return core.FrameError, []byte(err.Error()), nil
	}
	msg := &core.PartialMsg{
		Session: req.Session, Round: req.Round,
		Index: m.Share.Index, Degree: req.Degree, KeyBytes: req.KeyBytes,
		Shares: shares,
	}
	return ss.reply(req.Round, core.FramePartial, msg.Marshal())
}

var _ Handler = (*Member)(nil)
