// Package lib holds the cases the reachability walk must tell apart.
package lib

// Stats has a field named like Counter's uncalled method.
type Stats struct{ Count int }

// Counter counts.
type Counter struct{ n int }

// Count is called by nothing.
func (c *Counter) Count() int { return c.n }

// Reset is reached through a method value.
func (c *Counter) Reset() { c.n = 0 }

// Add is called.
func (c *Counter) Add() { c.n++ }

// Gauge has a method named like one of Counter's.
type Gauge struct{ n int }

// Add is called by nothing, though Counter.Add is.
func (g *Gauge) Add() { g.n++ }

// Ticker is called through.
type Ticker interface{ Tick() }

// Clock implements Ticker.
type Clock struct{ n int }

// Tick is reached through Ticker only.
func (c *Clock) Tick() { c.n++ }

// Job has a field named like Worker's method.
type Job struct{ Stop bool }

// Worker is stopped through a method value.
type Worker struct{ stopped bool }

// Stop is reached through a method value, though a field shares its name.
func (w *Worker) Stop() { w.stopped = true }

// Run is called by the fixture's main.
func Run() {}

// unused is called by nothing.
func unused() { helper() }

// helper is called by unused only.
func helper() {}
