package core

import (
	"fmt"
	"math/big"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/wire"
)

// Frame type tags for the TCP transport.
const (
	FrameQuery    = byte(1)
	FrameLocation = byte(2)
	FrameAnswer   = byte(3)
	FrameError    = byte(4)
	// FrameTenant optionally opens a session before FrameQuery: its
	// payload is the UTF-8 tenant id the session should be routed to.
	// Sessions that skip it land on the default tenant, which keeps the
	// pre-multi-tenant wire format valid byte for byte.
	FrameTenant = byte(5)
	// FrameTrace optionally precedes a session's first request frame on
	// either protocol (client → LSP before FrameTenant/FrameQuery,
	// coordinator → member before a request): its payload is the 8-byte
	// big-endian crypto-random trace id. An absent frame means the query
	// is untraced, so — like FrameTenant — the extension is wire
	// compatible byte for byte. Tags 5–8 belong to the member protocol
	// (member.go), hence 9.
	FrameTrace = byte(9)
)

// MaxTenantIDLen bounds the FrameTenant payload; tenant ids are operator
// configuration, not user data, and never need to be long.
const MaxTenantIDLen = 64

// ProtocolVersion is the wire-format version embedded in every QueryMsg; a
// server rejects queries from incompatible clients instead of
// misinterpreting their bytes.
const ProtocolVersion = 1

// QueryMsg is the coordinator's message to the LSP: {k, pk, n̄, d̄, [v], θ0}
// of Algorithm 1, extended with the protocol variant and the testing
// parameters the LSP needs for the answer sanitation.
type QueryMsg struct {
	Variant  Variant
	K        int
	Agg      gnn.Aggregate
	Theta0   float64
	Gamma    float64
	Eta      float64
	Phi      float64
	Sanitize bool
	Include  bool // include POI IDs in the answer encoding

	PK *big.Int // Paillier modulus N

	// PPGNN partitioning (unused by Naive).
	NBar []int
	DBar []int
	// Delta is δ: for Naive it is the location-set length; for the others
	// it documents the requested Privacy II level (δ' derives from DBar).
	Delta int

	// Encrypted indicator vectors, by variant:
	//   PPGNN/Naive: V (ε_1, length δ' resp. δ)
	//   OPT:         V1 (ε_1, length ⌈δ'/ω⌉) and V2 (ε_2, length ω)
	V  []*big.Int
	V1 []*big.Int
	V2 []*big.Int
}

// keyBytes returns the byte length of the modulus.
func (q *QueryMsg) keyBytes() int { return (q.PK.BitLen() + 7) / 8 }

// Marshal encodes the message; its length is the message's communication
// cost.
func (q *QueryMsg) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(ProtocolVersion)
	w.Uvarint(uint64(q.Variant))
	w.Uvarint(uint64(q.K))
	w.Uvarint(uint64(q.Agg))
	w.Float64(q.Theta0)
	w.Float64(q.Gamma)
	w.Float64(q.Eta)
	w.Float64(q.Phi)
	w.Bool(q.Sanitize)
	w.Bool(q.Include)
	w.BigInt(q.PK)
	w.IntSlice(q.NBar)
	w.IntSlice(q.DBar)
	w.Uvarint(uint64(q.Delta))
	kb := q.keyBytes()
	w.FixedBigIntSlice(q.V, 2*kb)
	w.FixedBigIntSlice(q.V1, 2*kb)
	w.FixedBigIntSlice(q.V2, 3*kb)
	return w.Bytes()
}

// UnmarshalQuery decodes a QueryMsg.
func UnmarshalQuery(b []byte) (*QueryMsg, error) {
	r := wire.NewReader(b)
	if v := r.Uvarint(); v != ProtocolVersion {
		if r.Err() == nil {
			return nil, fmt.Errorf("core: protocol version %d, this build speaks %d", v, ProtocolVersion)
		}
	}
	q := &QueryMsg{}
	q.Variant = Variant(r.Int())
	q.K = r.Int()
	q.Agg = gnn.Aggregate(r.Int())
	q.Theta0 = r.Float64()
	q.Gamma = r.Float64()
	q.Eta = r.Float64()
	q.Phi = r.Float64()
	q.Sanitize = r.Bool()
	q.Include = r.Bool()
	q.PK = r.BigInt()
	q.NBar = r.IntSlice()
	q.DBar = r.IntSlice()
	q.Delta = r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding query: %w", err)
	}
	if q.PK.Sign() <= 0 {
		return nil, fmt.Errorf("core: query has invalid public key")
	}
	// A degree-s ciphertext is (s+1) key widths wide: ε_1 for V and V1,
	// ε_2 for V2.
	kb := q.keyBytes()
	q.V = r.FixedBigIntSlice(2 * kb)
	q.V1 = r.FixedBigIntSlice(2 * kb)
	q.V2 = r.FixedBigIntSlice(3 * kb)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding query ciphertexts: %w", err)
	}
	return q, nil
}

// LocationMsg carries one user's location set (i, 𝕃_i), sent directly from
// the user to the LSP so no other user sees it (Algorithm 1, line 15).
type LocationMsg struct {
	UserID int
	Set    []geo.Point
}

// Marshal encodes the message.
func (l *LocationMsg) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(uint64(l.UserID))
	w.Uvarint(uint64(len(l.Set)))
	for _, p := range l.Set {
		w.Float64(p.X)
		w.Float64(p.Y)
	}
	return w.Bytes()
}

// UnmarshalLocation decodes a LocationMsg.
func UnmarshalLocation(b []byte) (*LocationMsg, error) {
	r := wire.NewReader(b)
	l := &LocationMsg{UserID: r.Int()}
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding location set: %w", err)
	}
	if n*16 > r.Remaining() {
		return nil, fmt.Errorf("core: location set length %d exceeds payload", n)
	}
	l.Set = make([]geo.Point, n)
	for i := range l.Set {
		l.Set[i] = geo.Point{X: r.Float64(), Y: r.Float64()}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding location set: %w", err)
	}
	return l, nil
}

// AnswerMsg is the LSP's encrypted answer [a_*]: M ciphertexts of the given
// degree (1 for PPGNN/Naive, 2 for OPT).
type AnswerMsg struct {
	Degree int
	Cts    []*big.Int

	keyBytes int // for fixed-width marshaling
}

// NewAnswerMsg builds an answer for the given public key.
func NewAnswerMsg(pk *paillier.PublicKey, degree int, cts []*big.Int) *AnswerMsg {
	return &AnswerMsg{Degree: degree, Cts: cts, keyBytes: (pk.N.BitLen() + 7) / 8}
}

// Marshal encodes the message.
func (a *AnswerMsg) Marshal() []byte {
	var w wire.Writer
	w.Uvarint(uint64(a.Degree))
	w.Uvarint(uint64(a.keyBytes))
	w.FixedBigIntSlice(a.Cts, (a.Degree+1)*a.keyBytes)
	return w.Bytes()
}

// UnmarshalAnswer decodes an AnswerMsg.
func UnmarshalAnswer(b []byte) (*AnswerMsg, error) {
	r := wire.NewReader(b)
	a := &AnswerMsg{}
	a.Degree = r.Int()
	a.keyBytes = r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding answer: %w", err)
	}
	if a.Degree < 1 || a.Degree > paillier.MaxS {
		return nil, fmt.Errorf("core: answer degree %d out of range", a.Degree)
	}
	// FixedBigIntSlice refuses a zero key width and checks the count by
	// division, so a hostile count cannot force a huge allocation.
	a.Cts = r.FixedBigIntSlice((a.Degree + 1) * a.keyBytes)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding answer ciphertexts: %w", err)
	}
	return a, nil
}
