// sha2 — 25 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel sha2 {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 5;
  rec i32 n3 = 1;
  i32 n12 = in(2);
  i32 n24 = in(3);
  i32 n4 = n3 ^ n0;
  i32 n15 = n12 << n12;
  i32 n5 = n4 >> n4;
  i32 n6 = n5 | n5;
  i32 n7 = n6 << n4;
  i32 n8 = n7 ^ n7;
  i32 n9 = n8 | n6;
  n3 = n9 @ 1;
  i32 n10 = n9 >> n9;
  i32 n11 = abs(n10);
  i32 n13 = n11 | n7;
  i32 n14 = mem[n13];
  i32 n16 = n13 >> n15;
  i32 n17 = select(n12, n16, n14);
  i32 n18 = n16 | n17;
  i32 n19 = n17 << n18;
  i32 n20 = n19 >> n19;
  i32 n21 = n18 & n19;
  i32 n22 = n20 & n14;
  out(n22);
}
