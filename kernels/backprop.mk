// backprop — 34 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel backprop {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 52;
  rec i32 n3 = 1;
  rec i32 n8 = 0;
  rec i32 n10 = 0;
  i32 n16 = 160;
  i32 n22 = 246;
  rec i32 n24 = 0;
  n24 = n22 @ 1;
  rec i32 n28 = 0;
  i32 n4 = n3 * n2;
  i32 n17 = n16 + n16;
  i32 n23 = n22 * n22;
  i32 n5 = n4 + n3;
  n8 = n5 @ 1;
  i32 n25 = n24 * n23;
  i32 n6 = n5 * n4;
  i32 n26 = n25 + n24;
  n28 = n26 @ 1;
  i32 n7 = n6 * n4;
  n3 = n7 @ 1;
  i32 n27 = n25 * n26;
  i32 n9 = n8 * n7;
  i32 n29 = n28 + n27;
  i32 n11 = n10 + n9;
  n10 = n11 @ 1;
  i32 n12 = -n9;
  i32 n13 = mem[n9];
  i32 n30 = (mem[n27] = n29);
  i32 n14 = n11 + n13;
  i32 n31 = n29 * n30;
  i32 n15 = n12 + n14;
  i32 n32 = n31 + n29;
  i32 n18 = select(n10, n15, n16);
  i32 n33 = -n32;
  i32 n19 = (mem[n18] = n18);
  i32 n20 = n19 * n19;
  i32 n21 = n19 + n20;
}
