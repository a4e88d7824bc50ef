package core

import "repro/internal/angluin"

// SetUnbindHook makes fn see every fragment's Words as its learning
// ends, until the returned function removes it.
func SetUnbindHook(fn func(*angluin.Words)) (remove func()) {
	unbindHook = fn
	return func() { unbindHook = nil }
}
