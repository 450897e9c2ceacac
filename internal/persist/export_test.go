package persist

// Handles returns the number of cached object handles.
func (r *Registry) Handles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.objs)
}
