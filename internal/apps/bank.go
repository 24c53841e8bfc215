package apps

import (
	"fmt"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Bank is the classic STM bank benchmark: an array of accounts, short
// transfer transactions, and long read-only audit scans. Transfers are
// tiny update transactions (high update ratio); audits read every
// account (long invisible read sets that writers love to invalidate) —
// the two faces the paper's visible/invisible discussion contrasts,
// inside a single application.
type Bank struct {
	rt       *stm.Runtime
	accounts *txds.CounterArray
	n        int
	initial  uint64
}

// BankConfig sizes the bank.
type BankConfig struct {
	Accounts       int
	InitialBalance uint64
	// AuditRatio is the fraction of operations that are full audits.
	AuditRatio float64
	// MaxTransfer bounds the amount moved per transfer.
	MaxTransfer uint64
}

// DefaultBankConfig returns the sizing used by the experiments.
func DefaultBankConfig() BankConfig {
	return BankConfig{
		Accounts:       1 << 12,
		InitialBalance: 1000,
		AuditRatio:     0.05,
		MaxTransfer:    50,
	}
}

// NewBank allocates and fills the account array.
func NewBank(rt *stm.Runtime, cfg BankConfig) *Bank {
	b := &Bank{rt: rt, n: cfg.Accounts, initial: cfg.InitialBalance}
	rt.Run(func(tx *stm.Tx) error {
		b.accounts = txds.NewCounterArray(tx, rt, "bank.accounts", cfg.Accounts, cfg.InitialBalance)
		return nil
	})
	return b
}

// Transfer moves a random amount between two random accounts.
func (b *Bank) Transfer(rng *workload.Rng, maxAmount uint64) {
	from := rng.Intn(b.n)
	to := rng.Intn(b.n)
	amount := 1 + rng.Uint64()%maxAmount
	b.rt.Run(func(tx *stm.Tx) error {
		b.accounts.Transfer(tx, from, to, amount)
		return nil
	})
}

// Audit sums all accounts in a read-only transaction and returns the
// total.
func (b *Bank) Audit() uint64 {
	var sum uint64
	b.rt.Run(func(tx *stm.Tx) error {
		sum = b.accounts.Sum(tx)
		return nil
	}, stm.ReadOnly())
	return sum
}

// ExpectedTotal returns the invariant sum.
func (b *Bank) ExpectedTotal() uint64 { return uint64(b.n) * b.initial }

// Op runs one operation from the configured mix.
func (b *Bank) Op(rng *workload.Rng, cfg BankConfig) string {
	if rng.Float64() < cfg.AuditRatio {
		b.Audit()
		return "audit"
	}
	b.Transfer(rng, cfg.MaxTransfer)
	return "transfer"
}

// CheckInvariants verifies conservation of money.
func (b *Bank) CheckInvariants() string {
	if got, want := b.Audit(), b.ExpectedTotal(); got != want {
		return fmt.Sprintf("bank: total %d, want %d", got, want)
	}
	return ""
}
