package txn

import (
	"context"
	"errors"
)

// Typed resource-governance errors. Callers branch on these with
// errors.Is; every path through the engine wraps rather than replaces
// them.
var (
	// ErrTxTimeout aborts a transaction whose context deadline expired
	// (at a lock wait, a scan boundary, or commit backpressure). The
	// transaction is dead but the conflict is transient: IsRetryable
	// reports true, so a caller with time left may rerun it.
	ErrTxTimeout = errors.New("txn: transaction deadline exceeded")
	// ErrCanceled aborts a transaction whose context was canceled.
	// Cancellation is a caller decision, not a transient conflict, so
	// it is not retryable.
	ErrCanceled = errors.New("txn: transaction canceled")
	// ErrOverloaded rejects a transaction at admission: the concurrency
	// gate is full and the wait queue is at its bound. Overload must
	// degrade to fast rejection — retrying immediately would rebuild
	// the queue — so it is not retryable.
	ErrOverloaded = errors.New("txn: overloaded, too many concurrent transactions")
	// ErrDBClosed rejects work against a database that is closing or
	// closed.
	ErrDBClosed = errors.New("txn: database is closed")
	// ErrReadOnly rejects writes against a database in read-only mode —
	// a replica following a primary. Writes must go to the primary;
	// promotion clears the mode. Not retryable: the same node stays
	// read-only until an operator promotes it.
	ErrReadOnly = errors.New("txn: database is read-only (replica)")
	// ErrStaleEpoch rejects work carried out under a replication epoch
	// older than the observer's: the node it came from was deposed by a
	// promotion it has not seen. Retryable — through a failover-aware
	// router (client.Replicated) the rerun re-discovers the current
	// primary; the deposed node itself keeps failing until it rejoins
	// as a replica.
	ErrStaleEpoch = errors.New("txn: stale replication epoch (node was deposed by a newer promotion)")
	// ErrNoPrepared rejects a two-phase-commit decision for a global
	// transaction id with no prepared state and no recorded commit
	// decision on this node. Under presumed abort this is a hard "no
	// such transaction" only for CommitPrepared; AbortPrepared treats
	// the same condition as success.
	ErrNoPrepared = errors.New("txn: no prepared transaction with that gid")
	// ErrUnknownOutcome reports a write whose records reached the WAL
	// file before its apply or fsync failed: it counts if and only if
	// the records are found when the database is reopened. A commit
	// decision in that state is answered with this error, never with a
	// presumed abort, until then. Not retryable: the outcome is fixed,
	// only unknown.
	ErrUnknownOutcome = errors.New("txn: outcome unknown until the database is reopened (database needs recovery)")
	// ErrFailover reports an operation lost to a replication failover
	// in progress: the primary went unreachable mid-flight, or its role
	// moved while the request was on the wire. Retryable for the same
	// reason ErrStaleEpoch is — the rerun lands on the promoted
	// primary once the router re-discovers it.
	ErrFailover = errors.New("txn: replication failover in progress")
)

// IsRetryable reports whether err names a transient conflict that an
// abort-and-rerun loop (the paper's transaction discipline) should
// retry: deadlock victims, deadline expiries, and replication-failover
// casualties (stale epoch, primary loss), yes; cancellation, overload
// rejection, closed database, and deterministic failures such as
// constraint violations, no.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTxTimeout) ||
		errors.Is(err, ErrStaleEpoch) || errors.Is(err, ErrFailover)
}

// FromContextErr maps a context failure onto the engine's typed
// errors: DeadlineExceeded becomes ErrTxTimeout, everything else
// (Canceled) becomes ErrCanceled.
func FromContextErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTxTimeout
	}
	return ErrCanceled
}
