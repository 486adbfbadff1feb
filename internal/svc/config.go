// Package svc is the service lifecycle layer of ROADMAP item "always-on
// LSP": it turns the single-LSP transport.Server into a long-running
// multi-tenant service. A Service owns named tenants (each with its own
// LSP over its own dataset), admits sessions against per-tenant quotas
// and a global overload gate, hot-reloads its configuration on SIGHUP
// under an epoch scheme that never drops an in-flight session, exposes
// liveness/readiness on the metrics endpoint, and converts repeated
// per-session panics into an unready-then-exit crash budget. DESIGN.md
// §13 documents the design.
package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"ppgnn/internal/core"
)

// Config is the service configuration, read from a JSON file and
// re-read on SIGHUP. Unknown fields are rejected — a typoed knob must
// fail the reload, not silently configure nothing.
type Config struct {
	// Tenants are the named datasets the service serves. Order matters
	// for telemetry: non-default tenants get metric slots "t0".."t7" in
	// config order (names never reach a metric; see the obs privacy
	// contract).
	Tenants []TenantConfig `json:"tenants"`
	// MaxInFlight caps concurrently admitted sessions across all
	// tenants; past it the adaptive overload gate sheds with a
	// retryable busy reply (0 = no global cap, quotas only).
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// TenantConfig describes one tenant: its wire id, its dataset, and its
// admission limits. Exactly one of Dataset and Synthetic selects the
// POI database.
type TenantConfig struct {
	// ID is the tenant id clients put in their FrameTenant. The id
	// "default" (transport.DefaultTenant) also serves every client that
	// predates multi-tenancy and sends no tenant frame.
	ID string `json:"id"`
	// Dataset is a point file in the format dataset.Load reads.
	Dataset string `json:"dataset,omitempty"`
	// Synthetic generates a deterministic clustered dataset of this
	// many POIs instead of reading a file.
	Synthetic int `json:"synthetic,omitempty"`
	// Seed drives the synthetic generator and the tenant LSP's
	// sanitation RNG (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// MaxSessions is the tenant's concurrent-session quota; sessions
	// past it are shed with a retryable busy reply. Required.
	MaxSessions int `json:"max_sessions"`
	// MaxLocations overrides the server's per-session location-frame
	// cap for this tenant (0 = server default).
	MaxLocations int `json:"max_locations,omitempty"`
	// Rerandomize refreshes the randomness of every answer ciphertext
	// before it goes back on the wire (core.LSP.Rerandomize). The service
	// backs it with per-tenant background-refilled randomness pools that
	// survive epoch swaps (DESIGN.md §15), so the defense-in-depth pass
	// costs one modular multiply per answer element at steady state.
	Rerandomize bool `json:"rerandomize,omitempty"`
}

// ParseConfig decodes and validates a config document. It is the fuzz
// surface of the reload path: any input either yields a valid Config or
// a descriptive error, never a panic and never a half-valid Config.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("svc: config: %w", err)
	}
	// Trailing garbage after the document is a malformed file, not an
	// extension point.
	if dec.More() {
		return nil, fmt.Errorf("svc: config: trailing data after document")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// LoadConfigFile reads and parses a config file.
func LoadConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("svc: config: %w", err)
	}
	return ParseConfig(data)
}

// Validate checks the structural invariants the service relies on.
// Dataset files are NOT opened here — a missing file is an epoch-build
// failure (it depends on the filesystem at swap time), while Validate is
// pure so the fuzzer can run it without touching disk.
func (c *Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("svc: config: no tenants")
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("svc: config: max_in_flight %d is negative", c.MaxInFlight)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		if err := validateTenantID(t.ID); err != nil {
			return fmt.Errorf("svc: config: tenant %d: %w", i, err)
		}
		if seen[t.ID] {
			return fmt.Errorf("svc: config: duplicate tenant id %q", t.ID)
		}
		seen[t.ID] = true
		if t.Dataset == "" && t.Synthetic == 0 {
			return fmt.Errorf("svc: config: tenant %q: needs a dataset file or a synthetic size", t.ID)
		}
		if t.Dataset != "" && t.Synthetic != 0 {
			return fmt.Errorf("svc: config: tenant %q: dataset and synthetic are mutually exclusive", t.ID)
		}
		if t.Synthetic < 0 {
			return fmt.Errorf("svc: config: tenant %q: synthetic size %d is negative", t.ID, t.Synthetic)
		}
		if t.MaxSessions <= 0 {
			return fmt.Errorf("svc: config: tenant %q: max_sessions %d must be positive", t.ID, t.MaxSessions)
		}
		if t.MaxLocations < 0 {
			return fmt.Errorf("svc: config: tenant %q: max_locations %d is negative", t.ID, t.MaxLocations)
		}
	}
	return nil
}

// validateTenantID enforces the wire contract on tenant ids: non-empty,
// at most core.MaxTenantIDLen bytes, lowercase letters, digits, and
// separators only. The charset keeps ids unambiguous in logs, config
// files, and shell commands.
func validateTenantID(id string) error {
	if id == "" {
		return fmt.Errorf("empty tenant id")
	}
	if len(id) > core.MaxTenantIDLen {
		return fmt.Errorf("tenant id %d bytes long (max %d)", len(id), core.MaxTenantIDLen)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return fmt.Errorf("tenant id %q: character %q not in [a-z0-9._-]", id, r)
		}
	}
	return nil
}
