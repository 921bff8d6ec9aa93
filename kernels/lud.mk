// lud — 26 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel lud {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 56;
  rec i32 n3 = 1;
  rec i32 n7 = 0;
  rec i32 n19 = 0;
  i32 n4 = n3 - n0;
  n7 = n4 @ 1;
  i32 n8 = mem[n7];
  i32 n10 = mem[n7];
  i32 n5 = n4 - n0;
  n3 = n5 @ 1;
  i32 n9 = n8 * n8;
  i32 n11 = n10 + n8;
  i32 n13 = mem[n10];
  i32 n6 = n5 * n5;
  i32 n12 = n10 * n11;
  i32 n14 = mem[n12];
  i32 n15 = ~n14;
  i32 n16 = n15 - n14;
  i32 n17 = n16 + n16;
  i32 n18 = n16 - n17;
  n19 = n18 @ 1;
  i32 n20 = (mem[n19] = n17);
  i32 n22 = n13 + n18;
  i32 n21 = n17 * n20;
  i32 n23 = n20 * n22;
  i32 n24 = abs(n23);
  i32 n25 = n24 * n24;
}
