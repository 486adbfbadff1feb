package core

import (
	"context"
	"fmt"
	"math/big"

	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
	"ppgnn/internal/wire"
)

// Member-phase frames. The quorum session manager (internal/group) runs
// the intra-group phases of Algorithm 1 against n independent member
// endpoints instead of shared memory; these frames carry the
// coordinator↔member exchanges:
//
//	FrameContribReq  coordinator → member  "build your location set at pos"
//	FrameContrib     member → coordinator  the member's LocationMsg payload
//	FramePartialReq  coordinator → member  "partially decrypt these cts"
//	FramePartial     member → coordinator  the member's decryption shares
//
// Every message echoes (Session, Round) so late replies from an abandoned
// round are recognized as stale instead of being mistaken for
// equivocation, and a FrameError payload carries a member-side rejection.
const (
	FrameContribReq = byte(5)
	FrameContrib    = byte(6)
	FramePartialReq = byte(7)
	FramePartial    = byte(8)
)

// ContribRequest asks one member for its location-set contribution: build
// a set of SetSize locations inside Space with the real location at index
// Pos, and answer as user Slot (lines 4–7 of Algorithm 1; the slot is the
// member's user index under the current round's partition).
type ContribRequest struct {
	Session uint64
	Round   int
	Slot    int
	Pos     int
	SetSize int
	Space   geo.Rect
}

// Marshal encodes the request.
func (c *ContribRequest) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(c.Session)
	w.Uvarint(uint64(c.Round))
	w.Uvarint(uint64(c.Slot))
	w.Uvarint(uint64(c.Pos))
	w.Uvarint(uint64(c.SetSize))
	w.Float64(c.Space.Min.X)
	w.Float64(c.Space.Min.Y)
	w.Float64(c.Space.Max.X)
	w.Float64(c.Space.Max.Y)
	return w.Bytes()
}

// UnmarshalContribRequest decodes a ContribRequest.
func UnmarshalContribRequest(b []byte) (*ContribRequest, error) {
	r := wire.NewReader(b)
	c := &ContribRequest{
		Session: r.Uvarint(),
		Round:   r.Int(),
		Slot:    r.Int(),
		Pos:     r.Int(),
		SetSize: r.Int(),
	}
	c.Space.Min.X = r.Float64()
	c.Space.Min.Y = r.Float64()
	c.Space.Max.X = r.Float64()
	c.Space.Max.Y = r.Float64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding contribution request: %w", err)
	}
	if c.SetSize < 1 {
		return nil, fmt.Errorf("core: contribution request for empty set")
	}
	if c.Pos < 0 || c.Pos >= c.SetSize {
		return nil, fmt.Errorf("core: contribution position %d outside [0,%d)", c.Pos, c.SetSize)
	}
	if !c.Space.Valid() || c.Space.Area() == 0 {
		return nil, fmt.Errorf("core: contribution request with degenerate space")
	}
	return c, nil
}

// ContributionMsg is one member's answer to a ContribRequest: its
// d-anonymous location set for the round. The coordinator validates it on
// receipt and forwards it to the LSP as a LocationMsg; the member's real
// location is hidden at the requested position exactly as in the
// shared-memory protocol.
type ContributionMsg struct {
	Session uint64
	Round   int
	Slot    int
	Set     []geo.Point
}

// Marshal encodes the contribution.
func (c *ContributionMsg) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(c.Session)
	w.Uvarint(uint64(c.Round))
	w.Uvarint(uint64(c.Slot))
	w.Uvarint(uint64(len(c.Set)))
	for _, p := range c.Set {
		w.Float64(p.X)
		w.Float64(p.Y)
	}
	return w.Bytes()
}

// UnmarshalContribution decodes a ContributionMsg.
func UnmarshalContribution(b []byte) (*ContributionMsg, error) {
	r := wire.NewReader(b)
	c := &ContributionMsg{
		Session: r.Uvarint(),
		Round:   r.Int(),
		Slot:    r.Int(),
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding contribution: %w", err)
	}
	if n*16 > r.Remaining() {
		return nil, fmt.Errorf("core: contribution of %d locations exceeds payload", n)
	}
	c.Set = make([]geo.Point, n)
	for i := range c.Set {
		c.Set[i] = geo.Point{X: r.Float64(), Y: r.Float64()}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding contribution set: %w", err)
	}
	return c, nil
}

// Validate checks the contribution against the request that solicited it.
// The returned error is descriptive but untyped; the session layer wraps
// it into a ContributionError carrying the member's identity.
func (c *ContributionMsg) Validate(req *ContribRequest) error {
	if c.Session != req.Session {
		return fmt.Errorf("session %d, want %d", c.Session, req.Session)
	}
	if c.Round != req.Round {
		return fmt.Errorf("round %d, want %d", c.Round, req.Round)
	}
	if c.Slot != req.Slot {
		return fmt.Errorf("slot %d, want %d", c.Slot, req.Slot)
	}
	if len(c.Set) != req.SetSize {
		return fmt.Errorf("set size %d, want %d", len(c.Set), req.SetSize)
	}
	for i, p := range c.Set {
		if !req.Space.Contains(p) {
			return fmt.Errorf("location %d (%v) outside the service space", i, p)
		}
	}
	return nil
}

// LocationMsg converts the contribution into the user→LSP message form.
func (c *ContributionMsg) LocationMsg() *LocationMsg {
	return &LocationMsg{UserID: c.Slot, Set: c.Set}
}

// PartialRequest asks one member for its partial decryptions of the
// answer ciphertexts (threshold mode). KeyBytes fixes the wire width of
// every ciphertext at (Degree+1)·KeyBytes, matching AnswerMsg.
type PartialRequest struct {
	Session  uint64
	Round    int
	Degree   int
	KeyBytes int
	Cts      []*big.Int
}

// Marshal encodes the request.
func (p *PartialRequest) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(p.Session)
	w.Uvarint(uint64(p.Round))
	w.Uvarint(uint64(p.Degree))
	w.Uvarint(uint64(p.KeyBytes))
	w.FixedBigIntSlice(p.Cts, (p.Degree+1)*p.KeyBytes)
	return w.Bytes()
}

// UnmarshalPartialRequest decodes a PartialRequest.
func UnmarshalPartialRequest(b []byte) (*PartialRequest, error) {
	r := wire.NewReader(b)
	p := &PartialRequest{
		Session:  r.Uvarint(),
		Round:    r.Int(),
		Degree:   r.Int(),
		KeyBytes: r.Int(),
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding partial request: %w", err)
	}
	if p.Degree < 1 || p.Degree > paillier.MaxS {
		return nil, fmt.Errorf("core: partial request degree %d out of range", p.Degree)
	}
	// One ciphertext wider than a whole frame is nonsense; rejecting here
	// also keeps (Degree+1)·KeyBytes far from integer-overflow territory.
	if p.KeyBytes < 1 || (p.Degree+1)*p.KeyBytes > wire.MaxFrameSize {
		return nil, fmt.Errorf("core: partial request key width %d", p.KeyBytes)
	}
	p.Cts = r.FixedBigIntSlice((p.Degree + 1) * p.KeyBytes)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding partial request ciphertexts: %w", err)
	}
	return p, nil
}

// PartialShares produces one holder's decryption-share values for a
// batch of degree-s ciphertexts under the threshold key, fanned across
// the process-default worker pool: the Shares of the PartialMsg a member
// returns, and the vector a coordinator computes for its own key share.
func PartialShares(tk *paillier.ThresholdKey, ks *paillier.KeyShare, degree int, cts []*big.Int) ([]*big.Int, error) {
	in := make([]*paillier.Ciphertext, len(cts))
	for i, cv := range cts {
		in[i] = &paillier.Ciphertext{C: cv, S: degree}
	}
	dss, err := tk.PartialDecryptBatch(context.Background(), nil, ks, in)
	if err != nil {
		return nil, fmt.Errorf("core: partial decryption: %w", err)
	}
	out := make([]*big.Int, len(dss))
	for i, ds := range dss {
		out[i] = ds.Value
	}
	return out, nil
}

// PartialMsg is one member's decryption shares for a PartialRequest:
// Shares[i] is the share of Cts[i], produced under key-share Index.
type PartialMsg struct {
	Session  uint64
	Round    int
	Index    int // 1-based key-share index of the contributing member
	Degree   int
	KeyBytes int
	Shares   []*big.Int
}

// Marshal encodes the shares.
func (p *PartialMsg) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(p.Session)
	w.Uvarint(uint64(p.Round))
	w.Uvarint(uint64(p.Index))
	w.Uvarint(uint64(p.Degree))
	w.Uvarint(uint64(p.KeyBytes))
	w.FixedBigIntSlice(p.Shares, (p.Degree+1)*p.KeyBytes)
	return w.Bytes()
}

// UnmarshalPartial decodes a PartialMsg.
func UnmarshalPartial(b []byte) (*PartialMsg, error) {
	r := wire.NewReader(b)
	p := &PartialMsg{
		Session:  r.Uvarint(),
		Round:    r.Int(),
		Index:    r.Int(),
		Degree:   r.Int(),
		KeyBytes: r.Int(),
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding partial decryption: %w", err)
	}
	if p.Degree < 1 || p.Degree > paillier.MaxS {
		return nil, fmt.Errorf("core: partial decryption degree %d out of range", p.Degree)
	}
	// See UnmarshalPartialRequest: cap the element width before using it.
	if p.KeyBytes < 1 || (p.Degree+1)*p.KeyBytes > wire.MaxFrameSize {
		return nil, fmt.Errorf("core: partial decryption key width %d", p.KeyBytes)
	}
	p.Shares = r.FixedBigIntSlice((p.Degree + 1) * p.KeyBytes)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding partial decryption shares: %w", err)
	}
	return p, nil
}

// Validate checks the shares against the request that solicited them and
// the threshold key: the member must answer for the round it was asked
// about, under its own share index, with one share per ciphertext, every
// share a unit in [1, N^(s+1)). As with ContributionMsg.Validate, the
// session layer wraps the error with the member's identity.
func (p *PartialMsg) Validate(req *PartialRequest, wantIndex int, tk *paillier.ThresholdKey) error {
	if p.Session != req.Session {
		return fmt.Errorf("session %d, want %d", p.Session, req.Session)
	}
	if p.Round != req.Round {
		return fmt.Errorf("decrypt round %d, want %d", p.Round, req.Round)
	}
	if p.Degree != req.Degree {
		return fmt.Errorf("degree %d, want %d", p.Degree, req.Degree)
	}
	if p.Index != wantIndex {
		return fmt.Errorf("share index %d, want %d", p.Index, wantIndex)
	}
	if len(p.Shares) != len(req.Cts) {
		return fmt.Errorf("%d shares for %d ciphertexts", len(p.Shares), len(req.Cts))
	}
	mod := tk.NS(p.Degree + 1)
	for i, s := range p.Shares {
		if s.Sign() <= 0 || s.Cmp(mod) >= 0 {
			return fmt.Errorf("share %d outside [1, N^%d)", i, p.Degree+1)
		}
	}
	return nil
}
