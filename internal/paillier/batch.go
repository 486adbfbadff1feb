package paillier

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"

	"ppgnn/internal/parallel"
)

// Batch variants of the hot operations. Every phase of PPGNN that touches
// more than one ciphertext — indicator encryption, the LSP's ⊙ and ⨂
// selections over the δ' candidates, CRT decryption of the answer vector,
// threshold share production and combination — is a set of independent
// modular exponentiations, so the batch forms below fan the work across a
// parallel.Pool (nil = the process default, sized by GOMAXPROCS).
//
// Two invariants make the batch forms drop-in replacements for the serial
// loops (DESIGN.md §10):
//
//   - Determinism: randomness is drawn from the io.Reader serially, in
//     index order, BEFORE any fan-out. Seeded test readers are not safe
//     for concurrent use, and serial draws mean a batch call consumes the
//     reader exactly like the serial loop it replaces — outputs are
//     byte-identical for the same seed, at any worker count. Pooled
//     Precomputer factors are likewise taken in index order (LIFO, like
//     repeated take calls).
//
//   - Error discipline: inputs are validated up front, so a malformed
//     element fails the whole batch before any randomness is consumed;
//     mid-batch failures cancel remaining work and the first error is
//     returned, with every worker joined before the call returns.
//
// Concurrent refill ordering contract (ISSUE 10): a Precomputer may be
// refilled (FillCtx, typically from the background refiller) while
// consumers encrypt from it. Both sides are atomic with respect to the
// pool mutex — takeN pops all its factors in one critical section, and
// FillCtx appends its whole chunk in one critical section AFTER the
// exponentiations are done — so a consuming batch observes either none
// or all of any concurrent fill, never a partial one. Within a batch,
// pooled factors are always the LIFO sequence repeated take calls would
// return from the same pool state: a concurrent fill can change WHICH
// factors a racing batch receives (the newest at its takeN instant),
// but never their relative order, split a fill across two batches'
// prefixes, or hand the same factor to two consumers. With the refiller
// paused, EncryptBatch output is byte-identical to the serial loop for
// the same pool state and reader seed at any worker count.

// errNilElement keeps batch validation messages uniform.
var errNilElement = errors.New("paillier: nil element in batch")

// encFactors readies n degree-s encryption factors for one batch; it is
// the one way every batch encryption, rerandomization and pool fill gets
// its randomness. Pooled factors come first, popped from pre (nil = no
// pool) in one LIFO takeN; the rest are drawn from random serially in
// index order, before any fan-out. For the key holder it then readies
// the combs of the online draws (encCombs), so the fan-out only reads
// them.
func (pk *PublicKey) encFactors(pre *Precomputer, random io.Reader, n, s int) (*encDraws, error) {
	d := &encDraws{pk: pk, s: s, counted: pre != nil}
	if pre != nil {
		d.pool = pre.takeN(n)
	}
	d.drawn = make([]*big.Int, n-len(d.pool))
	for i := range d.drawn {
		var err error
		if d.drawn[i], err = pk.drawEncRand(random); err != nil {
			// The popped factors are dropped, never reused: losing pooled
			// randomness is safe, reusing it would break semantic security.
			return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
		}
	}
	pk.warmEnc(s)
	if pk.sk != nil && len(d.drawn) > 0 {
		d.combs = pk.sk.encCombs(s, len(d.drawn))
	}
	return d, nil
}

// encDraws is one batch's encryption randomness from encFactors: pooled
// factors for the indices below len(pool), online draws for the rest.
// Its methods are safe to call from the caller's pl.ForEach workers, once
// per index.
type encDraws struct {
	pk      *PublicKey
	s       int
	counted bool // a pool was consulted: count every factor by source
	pool    []*big.Int
	drawn   []*big.Int
	combs   factorCombs // the key holder's combs for the online draws
}

// term returns factor i either ready, as f, or as the unit r whose power
// r^{N^s} is the factor, so that a caller already running a chain of
// N^s-bit exponents mod N^{s+1} can fold (r, N^s) into it. Only an online
// draw under a public key comes back as r: the key holder's draws become
// fixed-base CRT factors (crt.go), cheaper than any chain term.
func (d *encDraws) term(i int) (f, r *big.Int) {
	if i < len(d.pool) {
		mEncPooled.Inc()
		return d.pool[i], nil
	}
	if d.counted {
		mEncOnline.Inc()
	}
	rv := d.drawn[i-len(d.pool)]
	if d.pk.sk != nil {
		return d.pk.sk.combFactor(d.combs, rv), nil
	}
	return nil, rv
}

// factor returns factor i ready: the pooled factor or the draw's
// encryption factor.
func (d *encDraws) factor(i int) *big.Int {
	f, r := d.term(i)
	if r != nil {
		return d.pk.encFactor(r, d.s)
	}
	return f
}

// warmEnc materializes the caches an ε_s encryption reads (the kernel
// contexts for N^i, the inverse factorials and the key holder's CRT
// context), so fanned-out workers hit lock-free read paths instead of
// serializing on first-use population.
func (pk *PublicKey) warmEnc(s int) {
	pk.NS(s + 1)
	pk.invFactorial(s)
	if pk.sk != nil {
		pk.sk.crt(s)
	}
}

// checkPlaintexts validates a batch of degree-s plaintexts up front.
func (pk *PublicKey) checkPlaintexts(ms []*big.Int, s int) error {
	if s < 1 || s > MaxS {
		return fmt.Errorf("paillier: degree s=%d out of range [1,%d]", s, MaxS)
	}
	ns := pk.NS(s)
	for i, m := range ms {
		if m == nil {
			return fmt.Errorf("paillier: plaintext %d: %w", i, errNilElement)
		}
		if m.Sign() < 0 || m.Cmp(ns) >= 0 {
			return fmt.Errorf("paillier: plaintext %d out of range [0, N^%d)", i, s)
		}
	}
	return nil
}

// checkDegree validates a batch of ciphertexts that must all have degree s.
func checkDegree(cs []*Ciphertext, s int) error {
	if s < 1 || s > MaxS {
		return fmt.Errorf("paillier: degree s=%d out of range [1,%d]", s, MaxS)
	}
	for i, c := range cs {
		if c == nil {
			return fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		if c.S != s {
			return fmt.Errorf("paillier: ciphertext %d degree %d, want the batch degree %d", i, c.S, s)
		}
	}
	return nil
}

// encryptBatch encrypts ms under ε_s with factors from encFactors,
// returning the ciphertexts and how many factors came from pre.
func (pk *PublicKey) encryptBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, pre *Precomputer, ms []*big.Int, s int) ([]*Ciphertext, int, error) {
	if err := pk.checkPlaintexts(ms, s); err != nil {
		return nil, 0, err
	}
	d, err := pk.encFactors(pre, random, len(ms), s)
	if err != nil {
		return nil, 0, err
	}
	out := make([]*Ciphertext, len(ms))
	err = pl.ForEach(ctx, len(ms), func(i int) error {
		out[i] = pk.encryptWith(ms[i], d.factor(i), s)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(d.pool), nil
}

// rerandomizeBatch multiplies every degree-s ciphertext by a fresh factor
// from encFactors — an encryption of zero, so each output encrypts the
// same plaintext under fresh randomness.
func (pk *PublicKey) rerandomizeBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, pre *Precomputer, cs []*Ciphertext, s int) ([]*Ciphertext, int, error) {
	if err := checkDegree(cs, s); err != nil {
		return nil, 0, err
	}
	d, err := pk.encFactors(pre, random, len(cs), s)
	if err != nil {
		return nil, 0, err
	}
	out := make([]*Ciphertext, len(cs))
	err = pl.ForEach(ctx, len(cs), func(i int) error {
		out[i] = pk.mulFactor(cs[i].C, d.factor(i), s)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(d.pool), nil
}

// EncryptBatch encrypts every plaintext of ms under ε_s in parallel,
// returning ciphertexts in input order. Equivalent to calling Encrypt in
// a loop (including reader consumption order); see the package notes
// above for the determinism contract.
func (pk *PublicKey) EncryptBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, ms []*big.Int, s int) ([]*Ciphertext, error) {
	out, _, err := pk.encryptBatch(ctx, pl, random, nil, ms, s)
	return out, err
}

// RerandomizeBatch re-randomizes every ciphertext in parallel, consuming
// the reader exactly like a serial Rerandomize loop. All ciphertexts must
// share one degree; a mixed batch is rejected before any randomness is
// drawn.
func (pk *PublicKey) RerandomizeBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, cs []*Ciphertext) ([]*Ciphertext, error) {
	s := 1 // an empty batch has no degree; any valid one will do
	if len(cs) > 0 && cs[0] != nil {
		s = cs[0].S
	}
	out, _, err := pk.rerandomizeBatch(ctx, pl, random, nil, cs, s)
	return out, err
}

// DecryptBatch decrypts every ciphertext in parallel (each one on the CRT
// path), returning plaintexts in input order.
func (sk *PrivateKey) DecryptBatch(ctx context.Context, pl *parallel.Pool, cs []*Ciphertext) ([]*big.Int, error) {
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		if c.S < 1 || c.S > MaxS {
			return nil, fmt.Errorf("paillier: ciphertext %d degree %d out of range", i, c.S)
		}
		sk.warmDec(c.S)
	}
	out := make([]*big.Int, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		m, err := sk.Decrypt(cs[i])
		if err != nil {
			return fmt.Errorf("paillier: decrypting %d: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptLayeredBatch peels `layers` nested encryptions off every
// ciphertext in parallel — the OPT answer vector's [[ [a] ]] unwrap.
func (sk *PrivateKey) DecryptLayeredBatch(ctx context.Context, pl *parallel.Pool, cs []*Ciphertext, layers int) ([]*big.Int, error) {
	if layers < 1 {
		return nil, errors.New("paillier: layers must be >= 1")
	}
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		for s := c.S; s >= 1 && s > c.S-layers; s-- {
			sk.warmDec(s)
		}
	}
	out := make([]*big.Int, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		m, err := sk.DecryptLayered(cs[i], layers)
		if err != nil {
			return fmt.Errorf("paillier: decrypting %d: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// warmDec materializes the per-degree caches decryption reads (the CRT
// context and its decryption constants, N^i, inverse factorials).
func (sk *PrivateKey) warmDec(s int) {
	if s < 1 || s > MaxS {
		return
	}
	sk.decConsts(sk.crt(s), s)
	sk.warmEnc(s)
}

// dotInputs validates the ⊙ of every coefficient row against the
// encrypted vector v — v non-empty and of one degree s, each row as long
// as v — and returns the kernel's bases and exponent vectors for them.
// Negative coefficients are reduced mod N^s; zero ones are left for the
// kernel to skip, which matters for PPGNN's sparse indicators.
func (pk *PublicKey) dotInputs(rows [][]*big.Int, v []*Ciphertext) (s int, bases []*big.Int, exps [][]*big.Int, err error) {
	if len(v) == 0 {
		return 0, nil, nil, errors.New("paillier: dot product of empty vectors")
	}
	s = v[0].S
	bases = make([]*big.Int, len(v))
	for i, c := range v {
		if c == nil {
			return 0, nil, nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
		if c.S != s {
			return 0, nil, nil, errors.New("paillier: mixed ciphertext degrees in dot product")
		}
		bases[i] = c.C
	}
	ns := pk.NS(s)
	exps = make([][]*big.Int, len(rows))
	for j, row := range rows {
		if len(row) != len(v) {
			return 0, nil, nil, fmt.Errorf("paillier: row %d: dot product length mismatch %d vs %d", j, len(row), len(v))
		}
		exps[j] = make([]*big.Int, len(v))
		for i, x := range row {
			if x == nil {
				return 0, nil, nil, fmt.Errorf("paillier: row %d coefficient %d: %w", j, i, errNilElement)
			}
			if x.Sign() < 0 {
				x = new(big.Int).Mod(x, ns)
			}
			exps[j][i] = x
		}
	}
	return s, bases, exps, nil
}

// rerandSrc is where a selection's rerandomizers come from: pooled
// factors from pre (nil = none) while they last, then online draws from
// random (nil = crypto/rand).
type rerandSrc struct {
	random io.Reader
	pre    *Precomputer
}

// draws readies n degree-s rerandomizers exactly as rerandomizeBatch
// would: through pre's key when pre is set, as pre.RerandomizeBatch
// does, else through pk.
func (rs *rerandSrc) draws(pk *PublicKey, n, s int) (*encDraws, error) {
	if rs.pre == nil {
		return pk.encFactors(nil, rs.random, n, s)
	}
	if rs.pre.s != s || rs.pre.pk.N.Cmp(pk.N) != 0 {
		return nil, fmt.Errorf("paillier: precomputer does not match key/degree s=%d", s)
	}
	return rs.pre.pk.encFactors(rs.pre, rs.random, n, s)
}

// selectRows computes one ⊙ per coefficient row against v with one
// kernel table set of v mod N^{s+1} for all the rows, fanned across pl:
// every worker reads the shared tables and writes only its own slot.
//
// With rs, every output is also rerandomized, byte-identical to
// selecting and then calling rerandomizeBatch on the same draws, which
// are taken serially after validation and before the fan-out. The factor
// r^{N^s} of an online draw under a public key rides its row's chain:
// r is one more base, with exponent N^s in that row alone. Pooled and
// key-holder factors are multiplied in after the chain. It returns how
// many factors came from rs.pre.
func (pk *PublicKey) selectRows(ctx context.Context, pl *parallel.Pool, rows [][]*big.Int, v []*Ciphertext, rs *rerandSrc) ([]*Ciphertext, int, error) {
	out := make([]*Ciphertext, len(rows))
	if len(rows) == 0 {
		return out, 0, nil
	}
	s, bases, exps, err := pk.dotInputs(rows, v)
	if err != nil {
		return nil, 0, err
	}
	var factors []*big.Int // ready rerandomizers; nil entries ride the chain
	pooled := 0
	if rs != nil {
		d, err := rs.draws(pk, len(rows), s)
		if err != nil {
			return nil, 0, err
		}
		pooled = len(d.pool)
		factors = make([]*big.Int, len(rows))
		zero, ns := new(big.Int), pk.NS(s)
		for j := range rows {
			f, r := d.term(j)
			if r == nil {
				factors[j] = f
				continue
			}
			bases = append(bases, r)
			for k := range exps {
				e := zero
				if k == j {
					e = ns
				}
				exps[k] = append(exps[k], e)
			}
		}
	}
	tb, err := pk.Ctx(s+1).NewTables(bases, exps)
	if err != nil {
		return nil, 0, fmt.Errorf("paillier: dot product: %w", err)
	}
	err = pl.ForEach(ctx, len(rows), func(j int) error {
		ct := &Ciphertext{C: tb.Product(j), S: s}
		if factors != nil && factors[j] != nil {
			ct = pk.mulFactor(ct.C, factors[j], s)
		}
		out[j] = ct
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, pooled, nil
}

// MatSelectBatch is MatSelect (⨂, Theorem 3.1) with the independent row
// dot-products fanned across the pool: one ⊙ per row of a against the
// shared encrypted vector v, results in row order. Every row runs
// against one kernel table set of v.
func (pk *PublicKey) MatSelectBatch(ctx context.Context, pl *parallel.Pool, a [][]*big.Int, v []*Ciphertext) ([]*Ciphertext, error) {
	out, _, err := pk.selectRows(ctx, pl, a, v, nil)
	return out, err
}

// MatSelectRerandomized is MatSelectBatch with every output rerandomized:
// pooled factors from pre (nil = none; it must match the key and v's
// degree) while they last, then online randomness drawn serially from
// random (nil = crypto/rand). An online factor r^{N^s} rides its row's
// chain instead of costing an exponentiation of its own. With a seeded
// reader the outputs are byte-identical to MatSelectBatch followed by
// RerandomizeBatch, or pre.RerandomizeBatch. It also returns how many
// factors came from pre.
func (pk *PublicKey) MatSelectRerandomized(ctx context.Context, pl *parallel.Pool, random io.Reader, pre *Precomputer, a [][]*big.Int, v []*Ciphertext) ([]*Ciphertext, int, error) {
	return pk.selectRows(ctx, pl, a, v, &rerandSrc{random: random, pre: pre})
}

// LayeredSelectBatch runs the two-phase ε1/ε2 private selection of PPGNN-OPT
// (paper Section 6) over all m answer rows in parallel. cols is the padded
// answer matrix given column-major — len(v1)·len(v2) columns of height m —
// v1 the ε_1 within-block indicator over len(v1) columns, v2 the ε_2 block
// indicator over len(v2) blocks. For each row, phase 1 selects a column
// inside every block with v1; phase 2 selects the block with v2, treating
// the phase-1 ε_1 ciphertexts as ε_2 plaintexts. The result is m ε_2
// ciphertexts, in row order. Phase 1's ω·m products share one table set
// of v1 and fan out per (row, block); phase 2 fans out per row.
func (pk *PublicKey) LayeredSelectBatch(ctx context.Context, pl *parallel.Pool, cols [][]*big.Int, v1, v2 []*Ciphertext) ([]*Ciphertext, error) {
	out, _, err := pk.layeredSelect(ctx, pl, cols, v1, v2, nil)
	return out, err
}

// LayeredSelectRerandomized is LayeredSelectBatch with every output
// rerandomized, drawn as MatSelectRerandomized draws them: an online
// factor r^{N²} is one more term of its row's phase-2 chain, whose
// exponents — the phase-1 ciphertexts — are as wide as N². With a seeded
// reader the outputs are byte-identical to LayeredSelectBatch followed
// by RerandomizeBatch, or pre.RerandomizeBatch. It also returns how many
// factors came from pre.
func (pk *PublicKey) LayeredSelectRerandomized(ctx context.Context, pl *parallel.Pool, random io.Reader, pre *Precomputer, cols [][]*big.Int, v1, v2 []*Ciphertext) ([]*Ciphertext, int, error) {
	return pk.layeredSelect(ctx, pl, cols, v1, v2, &rerandSrc{random: random, pre: pre})
}

func (pk *PublicKey) layeredSelect(ctx context.Context, pl *parallel.Pool, cols [][]*big.Int, v1, v2 []*Ciphertext, rs *rerandSrc) ([]*Ciphertext, int, error) {
	omega, width := len(v2), len(v1)
	if omega == 0 || width == 0 {
		return nil, 0, errors.New("paillier: empty selection indicator")
	}
	if len(cols) != omega*width {
		return nil, 0, fmt.Errorf("paillier: %d columns for a %d×%d layered selection", len(cols), omega, width)
	}
	for i, c := range v1 {
		if c == nil || c.S != 1 {
			return nil, 0, fmt.Errorf("paillier: v1[%d] is not an ε_1 ciphertext", i)
		}
	}
	for i, c := range v2 {
		if c == nil || c.S != 2 {
			return nil, 0, fmt.Errorf("paillier: v2[%d] is not an ε_2 ciphertext", i)
		}
	}
	m := 0
	for i, col := range cols {
		if i == 0 {
			m = len(col)
		} else if len(col) != m {
			return nil, 0, fmt.Errorf("paillier: column %d height %d != %d", i, len(col), m)
		}
	}
	// Phase 1: output i·ω+b is row i's selection inside block b.
	rows := make([][]*big.Int, m*omega)
	for i := 0; i < m; i++ {
		for b := 0; b < omega; b++ {
			row := make([]*big.Int, width)
			for c := range row {
				row[c] = cols[b*width+c][i]
			}
			rows[i*omega+b] = row
		}
	}
	phase1, _, err := pk.selectRows(ctx, pl, rows, v1, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("paillier: phase-1 selection: %w", err)
	}
	// Phase 2: row i raises v2 to its ω phase-1 ciphertexts.
	rows = make([][]*big.Int, m)
	for i := range rows {
		rows[i] = make([]*big.Int, omega)
		for b := range rows[i] {
			rows[i][b] = phase1[i*omega+b].C
		}
	}
	out, pooled, err := pk.selectRows(ctx, pl, rows, v2, rs)
	if err != nil {
		return nil, 0, fmt.Errorf("paillier: phase-2 selection: %w", err)
	}
	return out, pooled, nil
}

// PartialDecryptBatch produces this holder's decryption share for every
// ciphertext, in parallel, in input order.
func (tk *ThresholdKey) PartialDecryptBatch(ctx context.Context, pl *parallel.Pool, share *KeyShare, cs []*Ciphertext) ([]*DecryptionShare, error) {
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("paillier: ciphertext %d: %w", i, errNilElement)
		}
	}
	out := make([]*DecryptionShare, len(cs))
	err := pl.ForEach(ctx, len(cs), func(i int) error {
		ds, err := tk.PartialDecrypt(share, cs[i])
		if err != nil {
			return fmt.Errorf("paillier: partial decryption %d: %w", i, err)
		}
		out[i] = ds
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CombineBatch combines one share set per ciphertext, in parallel, in
// input order. Each inner slice must hold at least T shares.
func (tk *ThresholdKey) CombineBatch(ctx context.Context, pl *parallel.Pool, shareSets [][]*DecryptionShare) ([]*big.Int, error) {
	tk.warmEnc(tk.SMax)
	out := make([]*big.Int, len(shareSets))
	err := pl.ForEach(ctx, len(shareSets), func(i int) error {
		m, err := tk.Combine(shareSets[i])
		if err != nil {
			return fmt.Errorf("paillier: combining shares for element %d: %w", i, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// takeN pops up to n pooled factors in LIFO order — the order n repeated
// take calls would return them — so batch encryption consumes the pool
// exactly like the serial loop.
func (p *Precomputer) takeN(n int) []*big.Int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > len(p.pool) {
		n = len(p.pool)
	}
	out := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		out[i] = p.pool[len(p.pool)-1-i]
	}
	p.pool = p.pool[:len(p.pool)-n]
	p.depth.Add(int64(-n))
	p.taken.Add(int64(n))
	return out
}

// EncryptBatch encrypts every plaintext using pooled randomness factors
// while they last, then online randomness drawn serially from random, and
// returns the ciphertexts in input order plus how many came from the pool
// (the cost meters' pool/online split). Output bytes match a serial loop
// of Precomputer.Encrypt calls for the same pool state and reader seed.
func (p *Precomputer) EncryptBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, ms []*big.Int) ([]*Ciphertext, int, error) {
	return p.pk.encryptBatch(ctx, pl, random, p, ms, p.s)
}

// RerandomizeBatch re-randomizes every ciphertext using pooled factors
// while they last, then online randomness drawn serially from random,
// returning fresh ciphertexts in input order plus how many factors came
// from the pool. Every input must be a degree-p.s ciphertext. Because
// an encryption of zero under factor r^{N^s} IS the factor, the pooled
// path costs one modular multiplication per ciphertext — this is what
// lets a refilled per-tenant pool keep server-side rerandomization off
// the online critical path (DESIGN.md §15).
func (p *Precomputer) RerandomizeBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, cs []*Ciphertext) ([]*Ciphertext, int, error) {
	return p.pk.rerandomizeBatch(ctx, pl, random, p, cs, p.s)
}

// FillCtx adds n randomness factors to the pool, fanning the factor
// exponentiations — the entire cost of the offline phase — across the
// pool's workers. Draws stay serial, so the pool contents for a seeded
// reader are independent of the worker count. The factors come from
// encFactors, so they are CRT-computed for the key holder; either way the
// pooled value is a complete N^s-th residue mod N^{s+1}.
func (p *Precomputer) FillCtx(ctx context.Context, pl *parallel.Pool, random io.Reader, n int) error {
	if n <= 0 {
		return nil
	}
	d, err := p.pk.encFactors(nil, random, n, p.s)
	if err != nil {
		return err
	}
	fresh := make([]*big.Int, n)
	err = pl.ForEach(ctx, n, func(i int) error {
		fresh[i] = d.factor(i)
		return nil
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.pool = append(p.pool, fresh...)
	p.depth.Add(int64(n))
	p.mu.Unlock()
	mPoolFilled.Add(int64(n))
	return nil
}
