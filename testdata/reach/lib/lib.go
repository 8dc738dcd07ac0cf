// Package lib holds a method that only a same-named field read names.
package lib

// Stats has a field named like Counter's uncalled method.
type Stats struct{ Count int }

// Counter counts.
type Counter struct{ n int }

// Count is called by nothing.
func (c *Counter) Count() int { return c.n }

// Reset is reached through a method value.
func (c *Counter) Reset() { c.n = 0 }

// Run is called by the fixture's main.
func Run() {}
