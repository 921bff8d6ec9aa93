// basicmath — 21 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel basicmath {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 2;
  rec i32 n3 = 1;
  rec i32 n11 = 0;
  i32 n20 = 128;
  i32 n4 = n3 - n3;
  i32 n12 = (mem[n11] = n11);
  i32 n5 = n4 - n2;
  i32 n13 = n11 + n12;
  i32 n6 = n5 + n3;
  n11 = n6 @ 1;
  i32 n14 = ~n13;
  i32 n7 = n6 * n6;
  i32 n15 = n14 + n13;
  i32 n8 = n7 * n7;
  i32 n16 = n15 * n15;
  i32 n9 = n8 - n7;
  n3 = n9 @ 1;
  i32 n17 = select(n15, n16, n16);
  i32 n10 = ~n9;
  i32 n18 = n16 + n17;
  i32 n19 = n18 - n18;
}
