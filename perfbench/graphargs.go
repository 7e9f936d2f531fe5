package main

import (
	"fmt"
	"math/rand/v2"

	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// graphArgsSrc is the graph-args sketch: a linked list and a square
// double matrix sent through their own call sites to a callee that
// reads the graph and returns a checksum. The list nodes come from one
// allocation site, so the compiler keeps the cycle table for the list
// (the paper's Figure 14 verdict); the callee retains nothing, so both
// argument graphs may be reused in place (§3.3).
const graphArgsSrc = `
class Node {
	Node next;
	int v;
	Node(Node n, int v) { this.next = n; this.v = v; }
}
remote class Sink {
	int sumList(Node l) {
		int t = 0;
		int i = 1;
		Node p = l;
		while (p != null) {
			t = t + i * p.v;
			i = i + 1;
			p = p.next;
		}
		return t;
	}
	double sumMatrix(double[][] m) {
		double s = 0.0;
		for (int i = 0; i < m.length; i = i + 1) {
			for (int j = 0; j < m[i].length; j = j + 1) {
				s = s + m[i][j];
			}
		}
		return s;
	}
}
class Main {
	static void main() {
		Sink s = new Sink();
		Node head = null;
		for (int i = 0; i < 100; i = i + 1) {
			head = new Node(head, i);
		}
		int a = s.sumList(head);
		double[][] m = new double[16][16];
		double b = s.sumMatrix(m);
		int useA = a + 1;
		double useB = b + 1.0;
	}
}
`

// Shapes of the graph-args inputs.
const (
	minList, maxList = 10, 200
	minMat, maxMat   = 4, 32
	// shapeChangeOdds: one call in this many draws a new shape; the
	// rest repeat the previous one, so reuse mostly hits and sometimes
	// takes the Figure 13 resize path.
	shapeChangeOdds = 8
)

var graphArgs = &rmiSpec{
	name:    "graph-args",
	src:     graphArgsSrc,
	callees: []string{"Sink.sumList", "Sink.sumMatrix"},
	clients: 1,
	newServer: func(res *core.Result, _ int64) (*rmi.Service, error) {
		next, v, err := nodeFields(res)
		if err != nil {
			return nil, err
		}
		return &rmi.Service{Name: "Sink", Methods: map[string]rmi.Method{
			"sumList": func(_ *rmi.Call, args []model.Value) []model.Value {
				var t, i int64 = 0, 1
				for p := args[0].O; p != nil; p = p.Fields[next].O {
					t += i * p.Fields[v].I
					i++
				}
				return []model.Value{model.Int(t)}
			},
			"sumMatrix": func(_ *rmi.Call, args []model.Value) []model.Value {
				var s float64
				for _, row := range args[0].O.Refs {
					for _, x := range row.Doubles {
						s += x
					}
				}
				return []model.Value{model.Double(s)}
			},
		}}, nil
	},
	newClient: newGraphClient,
}

func nodeFields(res *core.Result) (next, v int, err error) {
	node, ok := res.ModelClass("Node")
	if !ok {
		return 0, 0, fmt.Errorf("graph-args: sketch has no Node class")
	}
	return node.FieldIndex("next"), node.FieldIndex("v"), nil
}

// graphClient sends lists and matrices whose shape mostly repeats. One
// pre-built 200-node list serves every length (a suffix of a list is a
// list) and one 32x32 matrix every size (re-sliced), so drawing an
// input allocates nothing; the values are redrawn on every call.
type graphClient struct {
	rng      *rand.Rand
	nodes    []*model.Object // the full list, head first
	v        int
	mat      *model.Object
	rows     []*model.Object // full-length rows backing mat
	list     bool
	size     int
	args     []model.Value
	wantList int64
	wantMat  float64
}

func newGraphClient(res *core.Result, seed int64, id int) (client, error) {
	next, v, err := nodeFields(res)
	if err != nil {
		return nil, err
	}
	node, _ := res.ModelClass("Node")
	c := &graphClient{
		rng:   rand.New(rand.NewPCG(uint64(seed), uint64(id)+0x67a)),
		nodes: make([]*model.Object, maxList),
		v:     v,
		args:  make([]model.Value, 1),
	}
	for i := maxList - 1; i >= 0; i-- {
		c.nodes[i] = model.New(node)
		if i+1 < maxList {
			c.nodes[i].Fields[next] = model.Ref(c.nodes[i+1])
		}
	}
	reg := res.Registry
	c.mat = model.NewArray(reg.MustByName("double[][]"), maxMat)
	c.rows = make([]*model.Object, maxMat)
	for i := range c.rows {
		c.rows[i] = model.NewArray(reg.DoubleArray(), maxMat)
		c.mat.Refs[i] = c.rows[i]
	}
	c.reshape()
	return c, nil
}

// reshape draws a new input kind and size.
func (c *graphClient) reshape() {
	c.list = c.rng.IntN(2) == 0
	if c.list {
		c.size = minList + c.rng.IntN(maxList-minList+1)
		return
	}
	c.size = minMat + c.rng.IntN(maxMat-minMat+1)
	c.mat.Refs = c.mat.Refs[:c.size]
	for i := 0; i < c.size; i++ {
		c.rows[i].Doubles = c.rows[i].Doubles[:c.size]
	}
}

func (c *graphClient) next() (int, []model.Value) {
	if c.rng.IntN(shapeChangeOdds) == 0 {
		c.reshape()
	}
	if c.list {
		head := c.nodes[maxList-c.size:]
		c.wantList = 0
		for i, n := range head {
			x := int64(c.rng.IntN(1 << 20))
			n.Fields[c.v] = model.Int(x)
			c.wantList += int64(i+1) * x
		}
		c.args[0] = model.Ref(head[0])
		return 0, c.args
	}
	c.wantMat = 0
	for _, row := range c.mat.Refs {
		for j := range row.Doubles {
			// Multiples of 1/16 below 256: every partial sum is exact,
			// so the callee's sum equals this one bit for bit.
			x := float64(c.rng.IntN(1<<12)) / 16
			row.Doubles[j] = x
			c.wantMat += x
		}
	}
	c.args[0] = model.Ref(c.mat)
	return 1, c.args
}

func (c *graphClient) check(rets []model.Value) error {
	if len(rets) != 1 {
		return fmt.Errorf("graph-args: %d results, want 1", len(rets))
	}
	if c.list {
		if rets[0].I != c.wantList {
			return fmt.Errorf("graph-args: list of %d: checksum %d, want %d", c.size, rets[0].I, c.wantList)
		}
		return nil
	}
	if rets[0].D != c.wantMat {
		return fmt.Errorf("graph-args: %dx%d matrix: sum %g, want %g", c.size, c.size, rets[0].D, c.wantMat)
	}
	return nil
}
