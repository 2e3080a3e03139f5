// Package fixture exercises the cfmutate pass. Lines marked "flagged"
// appear in testdata/cfmutate.golden; everything else must stay silent.
package fixture

import (
	"birch/internal/cf"
	"birch/internal/vec"
)

func mutations(c *cf.CF, v cf.CF) {
	c.N++       // flagged: ++
	c.SS = 3    // flagged: assignment
	c.SS += 1   // flagged: compound assignment
	c.LS[0] = 1 // flagged: element write through LS
	v.N = 7     // flagged: value receiver still breaks the local summary
	p := &c.SS  // flagged: address-taking launders a later write
	_ = p
}

func multiAssign(c *cf.CF) {
	var x float64
	c.N, x = 1, 2 // flagged once (the CF field only)
	_ = x
}

func sanctioned(c *cf.CF, other *cf.CF, pt vec.Vector) {
	c.AddPoint(pt) // ok: mutation through the cf API
	c.Merge(other) // ok
	c.Unmerge(other)
	_ = c.N     // ok: field reads are fine
	_ = c.LS[0] // ok: element reads are fine
	ls := c.LS  // ok: aliasing the vector for reading
	_ = ls
}

func construction(pt vec.Vector) ([]cf.CF, error) {
	a := cf.FromPoint(pt)                   // ok
	b := cf.CF{N: 1, LS: pt.Clone(), SS: 2} // ok: composite literal
	_ = b
	cfs, _, err := cf.DecodeRows(cf.AppendRow(nil, &a), cf.CoreClassic, pt.Dim(), 1) // ok: validating decoder
	return cfs, err
}

func suppressedMutation(c *cf.CF) {
	c.N++ //birchlint:ignore cfmutate fixture demonstrates trailing suppression
}
