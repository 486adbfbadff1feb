package group

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/obs"
	"ppgnn/internal/wire"
)

// Session defaults; Config fields left zero pick these up.
const (
	DefaultMemberTimeout = 5 * time.Second
	DefaultRetries       = 2
	DefaultRetryBase     = 25 * time.Millisecond
	DefaultRetryMax      = 500 * time.Millisecond
)

// Config tunes a Session.
type Config struct {
	// Quorum is the minimum number of participants (coordinator included)
	// that must contribute for the session to complete; 0 requires the
	// full roster. Threshold mode raises it to at least the key's T.
	Quorum int
	// MemberTimeout bounds one request/reply exchange with one member
	// (default DefaultMemberTimeout).
	MemberTimeout time.Duration
	// Retries is the number of re-sends per exchange after the first
	// attempt (default DefaultRetries; negative = none).
	Retries int
	// RetryBase is the first backoff delay; it doubles per retry up to
	// RetryMax, each delay jittered in [½d, d) as in transport.Pool.
	RetryBase time.Duration
	// RetryMax caps the backoff delay.
	RetryMax time.Duration
	// Seed makes the backoff jitter deterministic (0 = time-seeded). The
	// session id is always drawn from fresh entropy: members cache their
	// replies by (session, round), so a re-run after ErrQuorumLost under
	// the same seed must not collide with the previous run's cache — the
	// members would replay contributions built for the old run's
	// positions, silently corrupting the answer.
	Seed int64
	// Meter, when set, receives the intra-group and LSP byte counts.
	Meter *cost.Meter
	// Logf, when set, receives roster-change progress lines.
	Logf func(format string, args ...any)
	// Obs receives the session's telemetry (nil = obs.Default). See
	// DESIGN.md §9 for the metric catalog.
	Obs *obs.Registry
}

// Phase is a session's position in its lifecycle FSM (DESIGN.md §8).
type Phase int

const (
	PhaseInit    Phase = iota // built, not started
	PhaseCollect              // collecting member contributions (may loop on re-partition)
	PhaseQuery                // query sent to the LSP, awaiting the answer
	PhaseDecrypt              // collecting partial decryptions (threshold mode)
	PhaseDone                 // result available
	PhaseFailed               // terminal error
)

func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "init"
	case PhaseCollect:
		return "collect"
	case PhaseQuery:
		return "query"
	case PhaseDecrypt:
		return "decrypt"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Outcome reports how a session ended: the result, who contributed to
// the final round, and every member removed along the way with the typed
// error that removed it (errors.Is(err, core.ErrBadContribution)
// distinguishes ejections from plain dropouts).
type Outcome struct {
	Result       *core.Result
	Contributors []int // roster ids whose sets formed the final query (0 = coordinator)
	Ejected      map[int]error
	Rounds       int // contribution rounds run (1 = no re-partition)
}

// memberState is the session's book-keeping for one member.
type memberState struct {
	id       int // roster id, 1..n-1 (0 is the coordinator)
	shareIdx int // expected key-share index in threshold mode, else 0
	link     Link
	// accepted maps round → the raw payload accepted for that round, for
	// duplicate/equivocation detection on late resubmissions. Only the
	// session goroutine currently responsible for this member touches it.
	accepted map[int][]byte
}

// Session drives one group query against n−1 member links. A Session is
// single-use: build with NewSession, call Run once.
type Session struct {
	coord   *core.Coordinator
	members []*memberState
	cfg     Config

	id     uint64
	n      int // full roster size, coordinator included
	quorum int // effective quorum, coordinator included
	phase  Phase
	round  int // shared round counter across contribute and decrypt phases

	rngMu sync.Mutex
	rng   *rand.Rand

	alive   map[int]bool
	ejected map[int]error

	reg *obs.Registry
	// curSpan is the span for the phase currently fanning out member
	// exchanges: workers call AddRetry on it and announce its trace id,
	// and partition spans nest under it while collect runs. It is
	// written only between phases, after every worker of the previous
	// phase has been joined.
	curSpan *obs.Span
}

// NewSession wires a coordinator to its member links. links[i] reaches
// the member with roster id i+1; in threshold mode that member must hold
// the key share NewThresholdCoordinator dealt at the same position
// (share index i+2, the coordinator keeping index 1).
func NewSession(coord *core.Coordinator, links []Link, cfg Config) (*Session, error) {
	n := coord.Params.N
	if n < 2 {
		return nil, fmt.Errorf("group: a session needs n ≥ 2, got %d", n)
	}
	if len(links) != n-1 {
		return nil, fmt.Errorf("group: %d links for a roster of %d members", len(links), n)
	}
	if cfg.Quorum < 0 || cfg.Quorum > n {
		return nil, fmt.Errorf("group: quorum %d outside [0,%d]", cfg.Quorum, n)
	}
	q := cfg.Quorum
	if q == 0 {
		q = n
	}
	if coord.TK != nil && q < coord.TK.T {
		q = coord.TK.T
	}
	if q < 2 {
		q = 2
	}
	if cfg.MemberTimeout <= 0 {
		cfg.MemberTimeout = DefaultMemberTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	s := &Session{
		coord: coord, cfg: cfg,
		id: newSessionID(), n: n, quorum: q,
		rng:     rng,
		alive:   make(map[int]bool, n-1),
		ejected: make(map[int]error),
		reg:     reg,
	}
	for i, l := range links {
		m := &memberState{id: i + 1, link: l, accepted: make(map[int][]byte)}
		if coord.TK != nil {
			m.shareIdx = i + 2
		}
		s.members = append(s.members, m)
		s.alive[m.id] = true
	}
	return s, nil
}

// newSessionID draws a session id from fresh entropy, never from
// Config.Seed (see the Seed doc: a seed-derived id would make members
// replay a previous same-seed run's cached replies). The time-seeded
// fallback only runs if the OS entropy source is unreadable.
func newSessionID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return rand.New(rand.NewSource(time.Now().UnixNano())).Uint64()
	}
	return binary.BigEndian.Uint64(b[:])
}

// Phase returns the session's current FSM phase.
func (s *Session) Phase() Phase { return s.phase }

// Quorum returns the effective quorum (coordinator included).
func (s *Session) Quorum() int { return s.quorum }

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// roster returns the sorted ids of the members still alive.
func (s *Session) roster() []int {
	ids := make([]int, 0, len(s.alive))
	for id := range s.alive {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// drop removes a member from the roster, recording why.
func (s *Session) drop(id int, err error) {
	if !s.alive[id] {
		return
	}
	delete(s.alive, id)
	s.ejected[id] = err
	s.reg.Counter("group_dropouts_total", obs.L("cause", core.Cause(err))).Inc()
	s.logf("group: member %d removed: %v", id, err)
}

// meterFrame charges one frame (header included) to the intra-group
// channel.
func (s *Session) meterFrame(payloadLen int) {
	s.cfg.Meter.AddBytes(cost.IntraGroup, wire.FrameHeaderSize+payloadLen)
}

// outcome snapshots the terminal state.
func (s *Session) outcome(res *core.Result, contributors []int, rounds int) *Outcome {
	ej := make(map[int]error, len(s.ejected))
	for id, err := range s.ejected {
		ej[id] = err
	}
	return &Outcome{Result: res, Contributors: contributors, Ejected: ej, Rounds: rounds}
}

// Run executes the session: collect a quorum of contributions (looping
// through re-partitions as the roster shrinks), query the LSP, decrypt —
// jointly in threshold mode — and decode. The Outcome is returned even
// on error, so callers can see who was ejected before the failure.
func (s *Session) Run(ctx context.Context, svc core.Service) (out *Outcome, err error) {
	if s.phase != PhaseInit {
		return s.outcome(nil, nil, 0), fmt.Errorf("group: session already run (phase %s)", s.phase)
	}
	// One trace per session: its metered "session" root completes the
	// trace and files it with the flight recorder when it ends.
	sess := s.reg.StartTrace("session")
	defer func() { sess.End(core.Outcome(err)) }()

	s.phase = PhaseCollect
	sp := s.reg.StartSpan("collect", sess)
	s.curSpan = sp
	plan, locs, contributors, err := s.collect(ctx)
	s.curSpan = nil
	sp.End(core.Outcome(err))
	if err != nil {
		s.phase = PhaseFailed
		return s.outcome(nil, nil, s.round), err
	}
	rounds := s.round

	s.phase = PhaseQuery
	qsp := s.reg.StartSpan("query", sess)
	qm, err := s.coord.BuildQuery(plan, s.cfg.Meter)
	if err != nil {
		qsp.End(core.Outcome(err))
		s.phase = PhaseFailed
		return s.outcome(nil, contributors, rounds), err
	}
	ans, perr := core.RoundTrip(svc, qsp, qm, locs, s.cfg.Meter)
	qsp.End(core.Outcome(perr))
	if perr != nil {
		s.phase = PhaseFailed
		err = perr
		return s.outcome(nil, contributors, rounds), err
	}

	// Decrypt: the coordinator alone with a sole key, one joint round per
	// ciphertext layer with the members' shares under a threshold key.
	s.phase = PhaseDecrypt
	dsp := s.reg.StartSpan("decrypt", sess)
	s.curSpan = dsp
	records, err := s.coord.Decrypt(ans, len(locs), s.cfg.Meter, func(degree int, cts []*big.Int) (map[int][]*big.Int, error) {
		return s.partialRound(ctx, degree, cts)
	})
	s.curSpan = nil
	dsp.End(core.Outcome(err))
	if err != nil {
		s.phase = PhaseFailed
		return s.outcome(nil, contributors, rounds), err
	}

	s.phase = PhaseDone
	return s.outcome(s.coord.Finish(records), contributors, rounds), nil
}

// collect runs contribution rounds until one completes with no failures,
// re-partitioning for the survivors after every round that lost members.
// Each round strictly shrinks the roster or succeeds, so the loop is
// bounded by n − quorum + 1 rounds.
func (s *Session) collect(ctx context.Context) (*core.RoundPlan, []*core.LocationMsg, []int, error) {
	for {
		roster := s.roster()
		n := len(roster) + 1
		if n < s.quorum {
			return nil, nil, nil, s.quorumLost("contribute", s.quorum, n)
		}
		psp := s.reg.StartSpan("partition", s.curSpan)
		plan, err := s.coord.Plan(n)
		psp.End(core.Outcome(err))
		if err != nil {
			return nil, nil, nil, err
		}
		round := s.round
		s.round++
		locs, failed, err := s.collectRound(ctx, plan, roster, round)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(failed) == 0 {
			return plan, locs, append([]int{0}, roster...), nil
		}
		for id, ferr := range failed {
			s.drop(id, ferr)
		}
		s.reg.Counter("group_repartitions_total").Inc()
		s.logf("group: round %d lost %d member(s), re-partitioning for %d", round, len(failed), len(s.alive)+1)
	}
}

// collectRound fans one round's ContribRequests out to the roster and
// waits for every member to succeed or fail within its bounded retry
// budget. The moment enough failures arrive to make a quorum impossible,
// the stragglers are cancelled and the round fails fast.
func (s *Session) collectRound(ctx context.Context, plan *core.RoundPlan, roster []int, round int) ([]*core.LocationMsg, map[int]error, error) {
	defer s.countRound("collect", time.Now())
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		slot int
		id   int
		lm   *core.LocationMsg
		err  error
	}
	ch := make(chan result, len(roster))
	for i, id := range roster {
		slot := i + 1 // coordinator is slot 0
		m := s.members[id-1]
		req := plan.Request(s.coord.Params, s.id, round, slot)
		go func() {
			lm, err := s.collectOne(rctx, m, req)
			ch <- result{slot: slot, id: m.id, lm: lm, err: err}
		}()
	}

	n := len(roster) + 1
	locs := make([]*core.LocationMsg, n)
	locs[0] = s.coord.OwnContribution(plan)
	failed := make(map[int]error)
	for done := 0; done < len(roster); {
		select {
		case r := <-ch:
			done++
			if r.err == nil {
				locs[r.slot] = r.lm
				continue
			}
			failed[r.id] = r.err
			if n-len(failed) < s.quorum {
				// Quorum unreachable: cancel the stragglers and collect
				// their verdicts so the outcome names everyone lost.
				cancel()
				for ; done < len(roster); done++ {
					if r2 := <-ch; r2.err != nil {
						failed[r2.id] = r2.err
					}
				}
				for id, ferr := range failed {
					s.drop(id, ferr)
				}
				return nil, nil, s.quorumLost("contribute", s.quorum, n-len(failed))
			}
		case <-ctx.Done():
			// Cancel and wait for the workers: none may outlive the round
			// still holding its member's link and accepted map.
			cancel()
			for ; done < len(roster); done++ {
				<-ch
			}
			return nil, nil, ctx.Err()
		}
	}
	return locs, failed, nil
}

// collectOne requests one member's contribution, validating the reply.
func (s *Session) collectOne(ctx context.Context, m *memberState, req *core.ContribRequest) (*core.LocationMsg, error) {
	v, err := s.call(ctx, m, req.Round, core.FrameContribReq, req.Marshal(),
		func(typ byte, payload []byte) (any, verdict, error) {
			switch typ {
			case core.FrameContrib:
				cm, err := core.UnmarshalContribution(payload)
				if err != nil {
					return nil, vEject, fmt.Errorf("undecodable contribution: %v", err)
				}
				if cm.Session != s.id {
					return nil, vSkip, nil
				}
				if cm.Round != req.Round {
					vd, verr := s.staleVerdict(m, cm.Round, payload)
					return nil, vd, verr
				}
				if err := cm.Validate(req); err != nil {
					return nil, vEject, err
				}
				return cm, vAccept, nil
			case core.FrameError:
				return nil, vEject, fmt.Errorf("member rejected contribution request: %s", payload)
			case core.FramePartial:
				return nil, vSkip, nil // stale frame from a decrypt phase
			default:
				return nil, vEject, fmt.Errorf("unexpected frame type %d", typ)
			}
		})
	if err != nil {
		return nil, err
	}
	return v.(*core.ContributionMsg).LocationMsg(), nil
}

// staleVerdict classifies a reply for a past round: a byte-identical
// resubmission is a benign replay (skipped); a differing one is
// equivocation (ejected).
func (s *Session) staleVerdict(m *memberState, round int, payload []byte) (verdict, error) {
	if prev, ok := m.accepted[round]; ok && !bytes.Equal(prev, payload) {
		s.reg.Counter("group_equivocations_total").Inc()
		return vEject, fmt.Errorf("equivocating resubmission for round %d", round)
	}
	return vSkip, nil
}

// partialRound runs the members' half of one joint decryption layer: the
// first T−1 valid member responses win (the coordinator adds its own
// share); stragglers are cancelled, invalid shares eject their member, and
// a roster that can no longer field T share-holders fails fast.
func (s *Session) partialRound(ctx context.Context, degree int, cts []*big.Int) (map[int][]*big.Int, error) {
	defer s.countRound("decrypt", time.Now())
	tk := s.coord.TK
	round := s.round
	s.round++

	roster := s.roster()
	if len(roster)+1 < tk.T {
		return nil, s.quorumLost("decrypt", tk.T, len(roster)+1)
	}
	req := &core.PartialRequest{Session: s.id, Round: round, Degree: degree, KeyBytes: s.coord.KeyBytes(), Cts: cts}
	reqB := req.Marshal()

	pctx, cancel := context.WithCancel(ctx)
	type result struct {
		id  int
		pm  *core.PartialMsg
		err error
	}
	ch := make(chan result, len(roster))
	for _, id := range roster {
		m := s.members[id-1]
		go func() {
			pm, err := s.partialOne(pctx, m, req, reqB)
			ch <- result{id: m.id, pm: pm, err: err}
		}()
	}

	pending := len(roster)
	// Every exit must drain: a straggler goroutine left running would
	// share its member's link and accepted map with the next layer's
	// goroutine for the same member (OPT runs layers back to back),
	// racing on both. Cancellation makes the workers exit promptly; their
	// late errors are discarded — being slow is not an offense worth the
	// roster spot.
	defer func() {
		// Workers still pending here were cancelled as stragglers: the
		// layer already had its T shares (or failed for other reasons).
		s.reg.Counter("group_stragglers_total").Add(int64(pending))
		cancel()
		for ; pending > 0; pending-- {
			<-ch
		}
	}()
	// The coordinator's own share is the +1 toward T throughout.
	shares := make(map[int][]*big.Int, tk.T)
	for len(shares)+1 < tk.T && pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err != nil {
				s.drop(r.id, r.err)
				if len(shares)+1+pending < tk.T {
					return nil, s.quorumLost("decrypt", tk.T, len(shares)+1+pending)
				}
				continue
			}
			shares[r.pm.Index] = r.pm.Shares
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if len(shares)+1 < tk.T {
		return nil, s.quorumLost("decrypt", tk.T, len(shares)+1)
	}
	return shares, nil
}

// partialOne requests one member's decryption shares, validating them
// against the request and the member's dealt share index.
func (s *Session) partialOne(ctx context.Context, m *memberState, req *core.PartialRequest, reqB []byte) (*core.PartialMsg, error) {
	v, err := s.call(ctx, m, req.Round, core.FramePartialReq, reqB,
		func(typ byte, payload []byte) (any, verdict, error) {
			switch typ {
			case core.FramePartial:
				pm, err := core.UnmarshalPartial(payload)
				if err != nil {
					return nil, vEject, fmt.Errorf("undecodable partial decryption: %v", err)
				}
				if pm.Session != s.id {
					return nil, vSkip, nil
				}
				if pm.Round != req.Round {
					vd, verr := s.staleVerdict(m, pm.Round, payload)
					return nil, vd, verr
				}
				if err := pm.Validate(req, m.shareIdx, s.coord.TK); err != nil {
					return nil, vEject, err
				}
				return pm, vAccept, nil
			case core.FrameContrib:
				cm, err := core.UnmarshalContribution(payload)
				if err != nil {
					return nil, vEject, fmt.Errorf("undecodable contribution: %v", err)
				}
				if cm.Session != s.id {
					return nil, vSkip, nil
				}
				vd, verr := s.staleVerdict(m, cm.Round, payload)
				return nil, vd, verr
			case core.FrameError:
				return nil, vEject, fmt.Errorf("member rejected partial-decryption request: %s", payload)
			default:
				return nil, vEject, fmt.Errorf("unexpected frame type %d", typ)
			}
		})
	if err != nil {
		return nil, err
	}
	return v.(*core.PartialMsg), nil
}

// verdict is a classifier's decision about one received frame.
type verdict int

const (
	vAccept verdict = iota // the awaited reply: accept and return
	vSkip                  // stale or foreign: keep waiting
	vEject                 // provably wrong: eject the member
)

// call runs one request/reply exchange with one member under the
// per-member deadline and bounded retry/backoff. classify inspects each
// received frame; stale frames are skipped without burning the attempt.
// Ejections surface as core.ContributionError (never retried); exhausted
// transient failures surface as the last marked-retryable error.
func (s *Session) call(ctx context.Context, m *memberState, round int, reqType byte, req []byte,
	classify func(typ byte, payload []byte) (any, verdict, error)) (any, error) {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if attempt > 0 {
			s.curSpan.AddRetry()
			if err := s.backoff(ctx, attempt); err != nil {
				return nil, err
			}
			m.link.Reset()
		}
		actx, cancel := context.WithTimeout(ctx, s.cfg.MemberTimeout)
		v, err := s.exchange(actx, m, round, reqType, req, classify)
		cancel()
		if err == nil {
			return v, nil
		}
		if !core.IsRetryable(err) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, core.Retryable(ctx.Err())
		}
		lastErr = err
	}
	return nil, fmt.Errorf("group: member %d unreachable after %d attempt(s): %w", m.id, s.cfg.Retries+1, lastErr)
}

// exchange is one attempt: send the request, then read frames until
// classify accepts, ejects, or the attempt deadline kills the read.
func (s *Session) exchange(ctx context.Context, m *memberState, round int, reqType byte, req []byte,
	classify func(typ byte, payload []byte) (any, verdict, error)) (any, error) {
	// A traced session announces its id before each request. The frame
	// is one-way: ProcLink and ServeConn absorb it without producing a
	// reply, so the request/reply pairing below is undisturbed.
	if id := s.curSpan.ID(); id != 0 {
		tb := core.MarshalTraceID(id)
		s.meterFrame(len(tb))
		if err := m.link.Send(ctx, core.FrameTrace, tb); err != nil {
			return nil, err
		}
	}
	s.meterFrame(len(req))
	if err := m.link.Send(ctx, reqType, req); err != nil {
		return nil, err
	}
	for {
		typ, payload, err := m.link.Recv(ctx)
		if err != nil {
			return nil, err
		}
		s.meterFrame(len(payload))
		v, vd, cerr := classify(typ, payload)
		switch vd {
		case vAccept:
			m.accepted[round] = append([]byte(nil), payload...)
			return v, nil
		case vSkip:
			continue
		default:
			return nil, &core.ContributionError{Member: m.id, Reason: cerr.Error()}
		}
	}
}

// backoff sleeps the attempt's core.RetryDelay (the transport.Pool
// schedule), or fails when the context expires first.
func (s *Session) backoff(ctx context.Context, attempt int) error {
	s.rngMu.Lock()
	d := core.RetryDelay(s.rng, s.cfg.RetryBase, s.cfg.RetryMax, attempt)
	s.rngMu.Unlock()
	return core.SleepRetry(ctx, d)
}
