// susan — 21 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel susan {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 9;
  rec i32 n3 = 1;
  i32 n19 = 63;
  rec i32 n20 = 0;
  n20 = n19 @ 1;
  i32 n4 = n3 + n2;
  n3 = n4 @ 1;
  i32 n5 = n3 ^ n4;
  i32 n8 = abs(n4);
  i32 n6 = n3 * n5;
  i32 n7 = (mem[n5] = n6);
  i32 n9 = (mem[n7] = n6);
  i32 n10 = n9 + n8;
  i32 n11 = n8 ^ n10;
  i32 n12 = select(n11, n8, n11);
  i32 n13 = n10 + n11;
  i32 n14 = (mem[n13] = n12);
  i32 n15 = ~n14;
  i32 n16 = mem[n15];
  i32 n17 = n15 ^ n16;
  i32 n18 = min(n15, n17);
}
