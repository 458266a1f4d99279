package core

import "falcon/internal/index"

// Indexes returns t's primary and secondary index (nil when it has none), for
// the tests of package core_test.
func (t *Table) Indexes() (primary, secondary index.Index) { return t.primary, t.secondary }
