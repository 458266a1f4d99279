package obs

// AbortReason classifies why a transaction attempt aborted. Every abort is
// attributed to exactly one reason, so the per-reason counters sum to the
// engine's total abort count.
type AbortReason uint8

const (
	// AbortLockConflict is an execution-time concurrency-control conflict:
	// a failed lock acquisition, a timestamp-order violation, or a torn read
	// under OCC/TO no-wait reads.
	AbortLockConflict AbortReason = iota
	// AbortValidation is an OCC commit-time validation failure (a read-set
	// version changed, or a write-set lock could not be taken).
	AbortValidation
	// AbortUserRollback is a caller-requested abort: ErrRollback from the
	// transaction closure (TPC-C NewOrder's 1%) or a bare Txn.Abort.
	AbortUserRollback
	// AbortTableFull is a heap-capacity failure (ErrTableFull).
	AbortTableFull
	// AbortLogFull is a redo log that exhausted the window's overflow
	// capacity (ErrTxnTooLarge).
	AbortLogFull
	// AbortCanceled is a cancellation: the transaction's deadline expired (or
	// its caller withdrew the request) mid-execution and ErrCanceled
	// propagated out of the attempt.
	AbortCanceled
	// AbortOther is any abort the engine could not attribute (e.g. an
	// application error like ErrNotFound propagating out of Engine.Run).
	AbortOther

	// NumAbortReasons is the number of reasons (array sizing).
	NumAbortReasons = int(AbortOther) + 1
)

// AbortReasonNames maps AbortReason values to stable short names.
var AbortReasonNames = [NumAbortReasons]string{
	"lock-conflict", "validation", "user-rollback", "table-full", "log-full", "canceled", "other",
}

func (r AbortReason) String() string {
	if int(r) < NumAbortReasons {
		return AbortReasonNames[r]
	}
	return "unknown"
}
