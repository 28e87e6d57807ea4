package main

import "testing"

func quickFixture(t *testing.T, name string, seed int64) *fixture {
	t.Helper()
	fx, err := newFixture(findWorkload(name), quickScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		name := workloads[i].Name
		a := streamDigest(quickFixture(t, name, 5), 5, 200)
		b := streamDigest(quickFixture(t, name, 5), 5, 200)
		c := streamDigest(quickFixture(t, name, 6), 6, 200)
		if a != b {
			t.Errorf("%s: seed 5 gave two different op streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same op stream", name)
		}
	}
}

func TestMixIsFixedByCount(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		fx := quickFixture(t, spec.Name, 3)
		want := map[opKind]int{}
		block := 0
		for _, m := range spec.mix {
			want[m.kind] += m.n
			block += m.n
		}
		for c := 0; c < numClients; c++ {
			st := newStream(fx, 3, c, "t")
			got := map[opKind]int{}
			for j := 0; j < 7*block; j++ {
				got[st.next().kind]++
			}
			for k, n := range want {
				if got[k] != 7*n {
					t.Errorf("%s client %d: %d %s ops in 7 blocks, want %d", spec.Name, c, got[k], k, 7*n)
				}
			}
		}
	}
}
