// gsm — 24 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel gsm {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 4;
  rec i32 n3 = 1;
  i32 n14 = in(2);
  rec i32 n17 = 0;
  i32 n4 = n3 ^ n3;
  i32 n5 = min(n4, n3);
  i32 n9 = -n4;
  i32 n6 = n5 ^ n1;
  n3 = n6 @ 1;
  i32 n11 = n9 * n9;
  i32 n7 = select(n6, n6, n0);
  i32 n12 = n11 * n9;
  i32 n13 = mem[n11];
  i32 n8 = min(n7, n7);
  i32 n15 = n13 * n12;
  i32 n10 = mem[n8];
  i32 n16 = n15 + n14;
  i32 n20 = (mem[n15] = n15);
  i32 n18 = n17 + n16;
  n17 = n18 @ 1;
  i32 n21 = mem[n20];
  i32 n19 = max(n18, n18);
  i32 n22 = n21 ^ n20;
  i32 n23 = max(n22, n22);
}
