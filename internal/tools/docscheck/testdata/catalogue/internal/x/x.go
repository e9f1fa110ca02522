// Package x registers metrics for the catalogue rule's test.
package x

var names = []string{"zht.x.registered", "zht.x.uncatalogued"}
