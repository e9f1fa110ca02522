// Command quick sets NumPartitions through a zht.Config literal.
package main

import "zht"

func main() { _ = zht.Config{NumPartitions: 8} }
