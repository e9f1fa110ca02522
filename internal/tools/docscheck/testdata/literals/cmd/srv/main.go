// Command srv sets Replicas through a struct field and OpRetries
// through a pointer parameter.
package main

import "zht/internal/core"

type server struct{ cfg core.Config }

func tune(c *core.Config) { c.OpRetries = 3 }

func main() {
	var s server
	s.cfg.Replicas = 2
	tune(&s.cfg)
}
