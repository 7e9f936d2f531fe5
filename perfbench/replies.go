package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// repliesSrc is the replies-tcp sketch: tiny requests (an int key or a
// short name) answered with a page graph (header plus body string).
// The caller parks every reply in a static, so the escape analysis
// denies reply reuse, as for passthrough.jp's Main.main.1: every reply
// is allocated on arrival and retained.
const repliesSrc = `
class Header {
	int status;
	int key;
	String etag;
}
class Page {
	Header hdr;
	String body;
}
remote class PageStore {
	Page[] pages;
	void init(int n) {
		this.pages = new Page[n];
		for (int i = 0; i < n; i = i + 1) {
			Page p = new Page();
			p.hdr = new Header();
			p.hdr.status = 200;
			p.hdr.key = i;
			p.hdr.etag = "e";
			p.body = "b";
			this.pages[i] = p;
		}
	}
	Page byKey(int key) {
		return this.pages[key % this.pages.length];
	}
	Page byName(String name) {
		int h = name.hashCode();
		return this.pages[h % this.pages.length];
	}
}
class Main {
	static Page last;
	static void main() {
		PageStore s = new PageStore();
		s.init(64);
		Page a = s.byKey(7);
		Main.last = a;
		Page b = s.byName("/page/7");
		Main.last = b;
	}
}
`

const (
	// numPages is the page table size.
	numPages = 64
	// minBody, maxBody bound the page body sizes: page i's size is the
	// i-th step of a fixed geometric ladder between them, so every
	// seed serves the same size mix; the seed permutes the ladder over
	// the keys and draws the contents.
	minBody, maxBody = 100, 16 << 10
)

// refPage is the generator's page, the reference every reply is
// checked against.
type refPage struct {
	status, key int64
	etag, body  string
	name        string // the page's request name
}

// genPages generates the seed's page table.
func genPages(seed int64) []refPage {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9a6e))
	perm := rng.Perm(numPages)
	pages := make([]refPage, numPages)
	statuses := []int64{200, 200, 200, 301, 404}
	for k := range pages {
		step := float64(perm[k]) / (numPages - 1)
		size := int(math.Round(minBody * math.Pow(maxBody/minBody, step)))
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(' ' + rng.IntN(95))
		}
		pages[k] = refPage{
			status: statuses[rng.IntN(len(statuses))],
			key:    int64(k),
			etag:   strconv.FormatUint(rng.Uint64(), 36),
			body:   string(body),
			name:   "/page/" + strconv.Itoa(k),
		}
	}
	return pages
}

// pageClasses resolves the sketch's page classes and field slots.
type pageClasses struct {
	page, header      *model.Class
	hdr, body         int // Page fields
	status, key, etag int // Header fields
}

func resolvePages(res *core.Result) (pageClasses, error) {
	page, ok1 := res.ModelClass("Page")
	header, ok2 := res.ModelClass("Header")
	if !ok1 || !ok2 {
		return pageClasses{}, fmt.Errorf("replies-tcp: sketch lacks Page or Header")
	}
	return pageClasses{
		page: page, header: header,
		hdr: page.FieldIndex("hdr"), body: page.FieldIndex("body"),
		status: header.FieldIndex("status"), key: header.FieldIndex("key"), etag: header.FieldIndex("etag"),
	}, nil
}

var repliesTCP = &rmiSpec{
	name:    "replies-tcp",
	src:     repliesSrc,
	callees: []string{"PageStore.byKey", "PageStore.byName"},
	clients: 2,
	tcp:     true,
	newServer: func(res *core.Result, seed int64) (*rmi.Service, error) {
		pc, err := resolvePages(res)
		if err != nil {
			return nil, err
		}
		ref := genPages(seed)
		objs := make([]*model.Object, len(ref))
		byName := make(map[string]int, len(ref))
		for k, rp := range ref {
			h := model.New(pc.header)
			h.Fields[pc.status] = model.Int(rp.status)
			h.Fields[pc.key] = model.Int(rp.key)
			h.Fields[pc.etag] = model.Str(rp.etag)
			p := model.New(pc.page)
			p.Fields[pc.hdr] = model.Ref(h)
			p.Fields[pc.body] = model.Str(rp.body)
			objs[k] = p
			byName[rp.name] = k
		}
		return &rmi.Service{Name: "PageStore", Methods: map[string]rmi.Method{
			"byKey": func(_ *rmi.Call, args []model.Value) []model.Value {
				return []model.Value{model.Ref(objs[args[0].I%int64(len(objs))])}
			},
			"byName": func(_ *rmi.Call, args []model.Value) []model.Value {
				k, ok := byName[args[0].S]
				if !ok {
					return []model.Value{model.Null()}
				}
				return []model.Value{model.Ref(objs[k])}
			},
		}}, nil
	},
	newClient: func(res *core.Result, seed int64, id int) (client, error) {
		pc, err := resolvePages(res)
		if err != nil {
			return nil, err
		}
		return &pageClient{
			rng:   rand.New(rand.NewPCG(uint64(seed), uint64(id)+0x5e9)),
			pages: genPages(seed),
			pc:    pc,
			args:  make([]model.Value, 1),
		}, nil
	},
}

// pageClient requests uniformly drawn pages, half by key and half by
// name.
type pageClient struct {
	rng   *rand.Rand
	pages []refPage
	pc    pageClasses
	args  []model.Value
	want  *refPage
}

func (c *pageClient) next() (int, []model.Value) {
	c.want = &c.pages[c.rng.IntN(len(c.pages))]
	if c.rng.IntN(2) == 0 {
		c.args[0] = model.Int(c.want.key)
		return 0, c.args
	}
	c.args[0] = model.Str(c.want.name)
	return 1, c.args
}

func (c *pageClient) check(rets []model.Value) error {
	if len(rets) != 1 || rets[0].O == nil {
		return fmt.Errorf("replies-tcp: page %d: no page returned", c.want.key)
	}
	p, pc := rets[0].O, c.pc
	h := p.Fields[pc.hdr].O
	if p.Class != pc.page || h == nil || h.Class != pc.header ||
		h.Fields[pc.status].I != c.want.status || h.Fields[pc.key].I != c.want.key ||
		h.Fields[pc.etag].S != c.want.etag || p.Fields[pc.body].S != c.want.body {
		return fmt.Errorf("replies-tcp: page %d differs from the generator's", c.want.key)
	}
	return nil
}
