package engine

// UseFullRescan makes e evaluate every instance with the full-rescan
// reference scheduler instead of the dirty-set drain. Call it before e
// holds an instance.
func UseFullRescan(e *Engine) { e.evalHook = (*Instance).evaluateFullRescan }

// VerifyScheduler makes e check every dirty-set drain against a
// read-only full rescan, panicking if the rescan finds progress the
// worklist missed. Call it before e holds an instance.
func VerifyScheduler(e *Engine) { e.evalHook = (*Instance).drainVerified }
